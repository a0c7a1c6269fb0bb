package tuple

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCloneIndependence(t *testing.T) {
	orig := Tuple{1, 2, 3}
	c := orig.Clone()
	c[0] = 99
	if orig[0] != 1 {
		t.Fatalf("clone aliases original: %v", orig)
	}
	if !orig.Equal(Tuple{1, 2, 3}) {
		t.Fatalf("original mutated: %v", orig)
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want bool
	}{
		{Tuple{}, Tuple{}, true},
		{Tuple{1}, Tuple{1}, true},
		{Tuple{1}, Tuple{2}, false},
		{Tuple{1, 2}, Tuple{1}, false},
		{Tuple{1, 2, 3}, Tuple{1, 2, 3}, true},
		{Tuple{1, 2, 3}, Tuple{1, 2, 4}, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%v.Equal(%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{1, 2}, Tuple{1, 2}, 0},
		{Tuple{1, 2}, Tuple{1, 3}, -1},
		{Tuple{2, 0}, Tuple{1, 9}, 1},
		{Tuple{1}, Tuple{1, 0}, -1},
		{Tuple{1, 0}, Tuple{1}, 1},
		{Tuple{}, Tuple{}, 0},
	}
	for _, c := range cases {
		got := c.a.Compare(c.b)
		if sign(got) != c.want {
			t.Errorf("%v.Compare(%v) = %d, want sign %d", c.a, c.b, got, c.want)
		}
	}
}

func sign(x int) int {
	switch {
	case x < 0:
		return -1
	case x > 0:
		return 1
	}
	return 0
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b []uint64) bool {
		ta, tb := Tuple(a), Tuple(b)
		return sign(ta.Compare(tb)) == -sign(tb.Compare(ta))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitiveOnTriples(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		mk := func() Tuple {
			n := rng.Intn(4)
			tt := make(Tuple, n)
			for j := range tt {
				tt[j] = Value(rng.Intn(3))
			}
			return tt
		}
		a, b, c := mk(), mk(), mk()
		if a.Compare(b) <= 0 && b.Compare(c) <= 0 && a.Compare(c) > 0 {
			t.Fatalf("transitivity violated: %v %v %v", a, b, c)
		}
	}
}

func TestComparePrefix(t *testing.T) {
	a := Tuple{1, 2, 99}
	b := Tuple{1, 2, 3}
	if a.ComparePrefix(b, 2) != 0 {
		t.Errorf("prefix-2 of %v vs %v should be equal", a, b)
	}
	if a.Compare(b) <= 0 {
		t.Errorf("full compare should differ")
	}
	if got := a.ComparePrefix(b, 3); got <= 0 {
		t.Errorf("prefix-3 compare = %d, want > 0", got)
	}
}

func TestProject(t *testing.T) {
	tt := Tuple{10, 20, 30, 40}
	got := tt.Project([]int{3, 1, 1})
	want := Tuple{40, 20, 20}
	if !got.Equal(want) {
		t.Errorf("Project = %v, want %v", got, want)
	}
	// Projection result must not alias the source.
	got[0] = 0
	if tt[3] != 40 {
		t.Errorf("projection aliased source")
	}
}

func TestHashPrefixConsistency(t *testing.T) {
	a := Tuple{5, 7, 100}
	b := Tuple{5, 7, 2000}
	if a.HashPrefix(2) != b.HashPrefix(2) {
		t.Errorf("tuples sharing join columns must share prefix hash")
	}
	if a.Hash() == b.Hash() {
		t.Errorf("full hash collision on differing tuples (possible, but not for these)")
	}
}

func TestHashSpreads(t *testing.T) {
	// Sequential keys should not all land in the same few buckets.
	const buckets = 16
	counts := make([]int, buckets)
	for i := 0; i < 1600; i++ {
		h := Tuple{Value(i)}.HashPrefix(1)
		counts[h%buckets]++
	}
	for b, n := range counts {
		if n == 0 {
			t.Errorf("bucket %d empty after 1600 sequential keys", b)
		}
		if n > 400 {
			t.Errorf("bucket %d holds %d of 1600 keys; hash is not spreading", b, n)
		}
	}
}

func TestString(t *testing.T) {
	if got := (Tuple{1, 2}).String(); got != "(1, 2)" {
		t.Errorf("String = %q", got)
	}
	if got := (Tuple{}).String(); got != "()" {
		t.Errorf("String = %q", got)
	}
}
