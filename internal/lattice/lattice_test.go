package lattice

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"paralagg/internal/tuple"
)

// semilattices are the aggregators whose Join must satisfy the full
// semilattice laws: idempotent, commutative, associative.
var semilattices = []Aggregator{Min{}, Max{}, BitOr{}, LexMin2{}}

// monotoneStreams must still be commutative and associative (delivery order
// is nondeterministic) but not idempotent.
var monotoneStreams = []Aggregator{MSum{}, MCount{}}

// genValue produces a dependent value of the aggregator's width. Floats are
// kept small and finite so float association error cannot trip the tests.
func genValue(agg Aggregator, rng *rand.Rand) []tuple.Value {
	v := make([]tuple.Value, agg.Width())
	for i := range v {
		switch agg.(type) {
		case FMin, MSum:
			v[i] = math.Float64bits(float64(rng.Intn(1 << 20)))
		default:
			v[i] = tuple.Value(rng.Intn(1 << 20))
		}
	}
	return v
}

func eq(agg Aggregator, a, b []tuple.Value) bool { return agg.Compare(a, b) == Equal }

func TestSemilatticeLaws(t *testing.T) {
	for _, agg := range semilattices {
		agg := agg
		t.Run(agg.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			for i := 0; i < 3000; i++ {
				a, b, c := genValue(agg, rng), genValue(agg, rng), genValue(agg, rng)
				if !eq(agg, agg.Join(a, a), a) {
					t.Fatalf("not idempotent at %v", a)
				}
				if !eq(agg, agg.Join(a, b), agg.Join(b, a)) {
					t.Fatalf("not commutative at %v %v", a, b)
				}
				l := agg.Join(agg.Join(a, b), c)
				r := agg.Join(a, agg.Join(b, c))
				if !eq(agg, l, r) {
					t.Fatalf("not associative at %v %v %v", a, b, c)
				}
			}
		})
	}
}

func TestMonotoneStreamLaws(t *testing.T) {
	for _, agg := range monotoneStreams {
		agg := agg
		t.Run(agg.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < 3000; i++ {
				a, b, c := genValue(agg, rng), genValue(agg, rng), genValue(agg, rng)
				if !eq(agg, agg.Join(a, b), agg.Join(b, a)) {
					t.Fatalf("not commutative at %v %v", a, b)
				}
				l := agg.Join(agg.Join(a, b), c)
				r := agg.Join(a, agg.Join(b, c))
				if !eq(agg, l, r) {
					t.Fatalf("not associative at %v %v %v", a, b, c)
				}
			}
		})
	}
}

// TestJoinIsUpperBound checks that a ⊑ a⊔b and b ⊑ a⊔b in the aggregate's
// own order (Compare never reports the join below an argument).
func TestJoinIsUpperBound(t *testing.T) {
	for _, agg := range semilattices {
		agg := agg
		t.Run(agg.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(17))
			for i := 0; i < 3000; i++ {
				a, b := genValue(agg, rng), genValue(agg, rng)
				j := agg.Join(a, b)
				if o := agg.Compare(j, a); o == Less || o == Incomparable {
					t.Fatalf("join %v below argument %v (order %v)", j, a, o)
				}
				if o := agg.Compare(j, b); o == Less || o == Incomparable {
					t.Fatalf("join %v below argument %v (order %v)", j, b, o)
				}
			}
		})
	}
}

func TestCompareAntisymmetry(t *testing.T) {
	all := append(append([]Aggregator{}, semilattices...), FMin{})
	for _, agg := range all {
		agg := agg
		t.Run(agg.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(19))
			flip := map[Order]Order{Less: Greater, Greater: Less, Equal: Equal, Incomparable: Incomparable}
			for i := 0; i < 2000; i++ {
				a, b := genValue(agg, rng), genValue(agg, rng)
				if agg.Compare(a, b) != flip[agg.Compare(b, a)] {
					t.Fatalf("asymmetric compare at %v %v", a, b)
				}
			}
		})
	}
}

func TestMinSemantics(t *testing.T) {
	m := Min{}
	if got := m.Join([]tuple.Value{5}, []tuple.Value{3}); got[0] != 3 {
		t.Fatalf("Join(5,3) = %v", got)
	}
	// Numerically smaller = lattice-greater (more information).
	if o := m.Compare([]tuple.Value{3}, []tuple.Value{5}); o != Greater {
		t.Fatalf("Compare(3,5) = %v, want Greater", o)
	}
	if o := m.Compare([]tuple.Value{5}, []tuple.Value{3}); o != Less {
		t.Fatalf("Compare(5,3) = %v, want Less", o)
	}
}

func TestMaxSemantics(t *testing.T) {
	m := Max{}
	if got := m.Join([]tuple.Value{5}, []tuple.Value{9}); got[0] != 9 {
		t.Fatalf("Join(5,9) = %v", got)
	}
	if o := m.Compare([]tuple.Value{9}, []tuple.Value{5}); o != Greater {
		t.Fatalf("Compare(9,5) = %v", o)
	}
}

func TestBitOrIncomparable(t *testing.T) {
	b := BitOr{}
	if o := b.Compare([]tuple.Value{0b01}, []tuple.Value{0b10}); o != Incomparable {
		t.Fatalf("disjoint sets compare as %v", o)
	}
	if o := b.Compare([]tuple.Value{0b01}, []tuple.Value{0b11}); o != Less {
		t.Fatalf("subset compares as %v", o)
	}
	if got := b.Join([]tuple.Value{0b01}, []tuple.Value{0b10}); got[0] != 0b11 {
		t.Fatalf("Join = %v", got)
	}
}

func TestFMinOnFloats(t *testing.T) {
	m := FMin{}
	a := []tuple.Value{math.Float64bits(2.5)}
	b := []tuple.Value{math.Float64bits(1.25)}
	if got := math.Float64frombits(m.Join(a, b)[0]); got != 1.25 {
		t.Fatalf("Join = %v", got)
	}
	if o := m.Compare(b, a); o != Greater {
		t.Fatalf("smaller float should be lattice-Greater, got %v", o)
	}
}

func TestLexMin2(t *testing.T) {
	m := LexMin2{}
	a := []tuple.Value{3, 100}
	b := []tuple.Value{3, 7}
	if got := m.Join(a, b); got[0] != 3 || got[1] != 7 {
		t.Fatalf("Join = %v", got)
	}
	c := []tuple.Value{2, 999}
	if got := m.Join(a, c); got[0] != 2 {
		t.Fatalf("Join = %v", got)
	}
}

func TestMSumAccumulates(t *testing.T) {
	s := MSum{}
	acc := []tuple.Value{math.Float64bits(0)}
	for i := 1; i <= 4; i++ {
		acc = s.Join(acc, []tuple.Value{math.Float64bits(float64(i))})
	}
	if got := math.Float64frombits(acc[0]); got != 10 {
		t.Fatalf("sum = %v", got)
	}
}

func TestMCountAccumulates(t *testing.T) {
	c := MCount{}
	acc := []tuple.Value{0}
	for i := 0; i < 7; i++ {
		acc = c.Join(acc, []tuple.Value{1})
	}
	if acc[0] != 7 {
		t.Fatalf("count = %d", acc[0])
	}
}

func TestIdempotentClassification(t *testing.T) {
	for _, agg := range semilattices {
		if !Idempotent(agg) {
			t.Errorf("%s misclassified as monotone-stream", agg.Name())
		}
	}
	if !Idempotent(FMin{}) {
		t.Errorf("FMin misclassified")
	}
	for _, agg := range monotoneStreams {
		if Idempotent(agg) {
			t.Errorf("%s misclassified as idempotent", agg.Name())
		}
	}
}

// Property: for Min, folding Join over any permutation of a set of values
// yields the same result as the plain minimum.
func TestMinFoldEqualsMinimum(t *testing.T) {
	f := func(vals []uint64) bool {
		if len(vals) == 0 {
			return true
		}
		agg := Min{}
		acc := []tuple.Value{vals[0]}
		min := vals[0]
		for _, v := range vals[1:] {
			acc = agg.Join(acc, []tuple.Value{v})
			if v < min {
				min = v
			}
		}
		return acc[0] == min
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOrderString(t *testing.T) {
	if Less.String() != "Less" || Incomparable.String() != "Incomparable" {
		t.Error("Order.String broken")
	}
	if Order(42).String() != "Order(42)" {
		t.Error("unknown order string")
	}
}

// TestSelectiveClassification pins which aggregates retraction may bound by
// the stored value: exactly those whose Join returns one of its arguments,
// checked on every pair of a small value grid, two-word pairs for LexMin2.
func TestSelectiveClassification(t *testing.T) {
	vals := []tuple.Value{0, 1, 2, 3, 5, 8, 1 << 40}
	for _, agg := range []Aggregator{Min{}, Max{}, FMin{}, LexMin2{}} {
		if !Selective(agg) {
			t.Errorf("%s not classified selective", agg.Name())
		}
		for _, a := range vals {
			for _, b := range vals {
				x, y := []tuple.Value{a, b}[:agg.Width()], []tuple.Value{b, a}[:agg.Width()]
				j := agg.Join(x, y)
				if !slices.Equal(j, x) && !slices.Equal(j, y) {
					t.Errorf("%s: %v ⊔ %v = %v, neither argument", agg.Name(), x, y, j)
				}
				if o := agg.Compare(x, y); o == Incomparable {
					t.Errorf("%s: %v and %v incomparable", agg.Name(), x, y)
				}
			}
		}
	}
	for _, agg := range []Aggregator{BitOr{}, MSum{}, MCount{}, userMin{}} {
		if Selective(agg) {
			t.Errorf("%s classified selective", agg.Name())
		}
	}
}

// userMin is Min as an aggregator defined elsewhere would write it: without
// the package's marker it keeps the conservative retraction.
type userMin struct{}

func (userMin) Name() string                          { return "user-min" }
func (userMin) Width() int                            { return 1 }
func (userMin) Join(a, b []tuple.Value) []tuple.Value { return Min{}.Join(a, b) }
func (userMin) Compare(a, b []tuple.Value) Order      { return Min{}.Compare(a, b) }
