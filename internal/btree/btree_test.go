package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"paralagg/internal/tuple"
)

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if tr.Has(tuple.Tuple{1}) {
		t.Fatal("empty tree Has = true")
	}
	tr.Ascend(func(tuple.Tuple) bool { t.Fatal("ascend on empty tree"); return false })
	tr.AscendPrefix(tuple.Tuple{1}, func(tuple.Tuple) bool { t.Fatal("prefix scan on empty tree"); return false })
}

func TestInsertAndHas(t *testing.T) {
	tr := New()
	if !tr.Insert(tuple.Tuple{1, 2}) {
		t.Fatal("first insert returned false")
	}
	if tr.Insert(tuple.Tuple{1, 2}) {
		t.Fatal("duplicate insert returned true")
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if !tr.Has(tuple.Tuple{1, 2}) {
		t.Fatal("Has = false after insert")
	}
	if tr.Has(tuple.Tuple{1, 3}) {
		t.Fatal("Has = true for absent tuple")
	}
}

func TestInsertClonesKey(t *testing.T) {
	tr := New()
	k := tuple.Tuple{5, 6}
	tr.Insert(k)
	k[0] = 99
	if !tr.Has(tuple.Tuple{5, 6}) {
		t.Fatal("tree aliased caller's tuple")
	}
}

func TestAscendSortedLarge(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	seen := map[[2]uint64]bool{}
	for i := 0; i < 5000; i++ {
		a, b := uint64(rng.Intn(500)), uint64(rng.Intn(500))
		ins := tr.Insert(tuple.Tuple{a, b})
		if ins == seen[[2]uint64{a, b}] {
			t.Fatalf("insert (%d,%d): returned %v but seen=%v", a, b, ins, seen[[2]uint64{a, b}])
		}
		seen[[2]uint64{a, b}] = true
	}
	if tr.Len() != len(seen) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(seen))
	}
	var prev tuple.Tuple
	count := 0
	tr.Ascend(func(tt tuple.Tuple) bool {
		if prev != nil && prev.Compare(tt) >= 0 {
			t.Fatalf("out of order: %v then %v", prev, tt)
		}
		prev = tt.Clone()
		count++
		return true
	})
	if count != len(seen) {
		t.Fatalf("ascend visited %d, want %d", count, len(seen))
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i++ {
		tr.Insert(tuple.Tuple{uint64(i)})
	}
	n := 0
	tr.Ascend(func(tuple.Tuple) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("visited %d after early stop", n)
	}
}

func TestAscendPrefix(t *testing.T) {
	tr := New()
	// 50 groups of 20 tuples each, inserted shuffled.
	var all []tuple.Tuple
	for g := 0; g < 50; g++ {
		for j := 0; j < 20; j++ {
			all = append(all, tuple.Tuple{uint64(g), uint64(j * 7)})
		}
	}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	for _, tt := range all {
		tr.Insert(tt)
	}
	for g := 0; g < 50; g++ {
		var got []uint64
		tr.AscendPrefix(tuple.Tuple{uint64(g)}, func(tt tuple.Tuple) bool {
			if tt[0] != uint64(g) {
				t.Fatalf("prefix scan for %d returned %v", g, tt)
			}
			got = append(got, tt[1])
			return true
		})
		if len(got) != 20 {
			t.Fatalf("group %d: %d matches, want 20", g, len(got))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			t.Fatalf("group %d scan unsorted: %v", g, got)
		}
	}
	// Absent prefix.
	tr.AscendPrefix(tuple.Tuple{999}, func(tt tuple.Tuple) bool {
		t.Fatalf("absent prefix matched %v", tt)
		return false
	})
}

func TestAscendPrefixEarlyStop(t *testing.T) {
	tr := New()
	for j := 0; j < 100; j++ {
		tr.Insert(tuple.Tuple{7, uint64(j)})
	}
	n := 0
	tr.AscendPrefix(tuple.Tuple{7}, func(tuple.Tuple) bool { n++; return false })
	if n != 1 {
		t.Fatalf("visited %d after immediate stop", n)
	}
}

// countPrefix returns the number of tuples of tr matching the prefix.
func countPrefix(tr *Tree, prefix tuple.Tuple) int {
	n := 0
	tr.AscendPrefix(prefix, func(tuple.Tuple) bool { n++; return true })
	return n
}

func TestCount(t *testing.T) {
	tr := New()
	for j := 0; j < 13; j++ {
		tr.Insert(tuple.Tuple{3, uint64(j)})
		tr.Insert(tuple.Tuple{4, uint64(j)})
	}
	if got := countPrefix(tr, tuple.Tuple{3}); got != 13 {
		t.Fatalf("Count(3) = %d", got)
	}
	if got := countPrefix(tr, tuple.Tuple{5}); got != 0 {
		t.Fatalf("Count(5) = %d", got)
	}
}

// TestAgainstReference drives the tree with random operations and checks
// every observable against a map+sort reference model.
func TestAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	tr := New()
	ref := map[[3]uint64]bool{}
	for op := 0; op < 20000; op++ {
		k := [3]uint64{uint64(rng.Intn(40)), uint64(rng.Intn(40)), uint64(rng.Intn(4))}
		tt := tuple.Tuple{k[0], k[1], k[2]}
		switch rng.Intn(3) {
		case 0:
			got := tr.Insert(tt)
			if got == ref[k] {
				t.Fatalf("op %d: Insert(%v) = %v, ref has %v", op, tt, got, ref[k])
			}
			ref[k] = true
		case 1:
			if got := tr.Has(tt); got != ref[k] {
				t.Fatalf("op %d: Has(%v) = %v, want %v", op, tt, got, ref[k])
			}
		case 2:
			// Prefix count against reference.
			p := tuple.Tuple{k[0]}
			want := 0
			for rk := range ref {
				if rk[0] == k[0] {
					want++
				}
			}
			if got := countPrefix(tr, p); got != want {
				t.Fatalf("op %d: Count(%v) = %d, want %d", op, p, got, want)
			}
		}
	}
	if tr.Len() != len(ref) {
		t.Fatalf("final Len = %d, want %d", tr.Len(), len(ref))
	}
	// Full scan matches sorted reference.
	var keys [][3]uint64
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		for c := 0; c < 3; c++ {
			if a[c] != b[c] {
				return a[c] < b[c]
			}
		}
		return false
	})
	i := 0
	tr.Ascend(func(tt tuple.Tuple) bool {
		k := keys[i]
		if tt[0] != k[0] || tt[1] != k[1] || tt[2] != k[2] {
			t.Fatalf("scan position %d: %v, want %v", i, tt, k)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("scan visited %d of %d", i, len(keys))
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(tuple.Tuple{uint64(rng.Int63()), uint64(rng.Int63())})
	}
}

func BenchmarkAscendPrefix(b *testing.B) {
	tr := New()
	for g := 0; g < 1000; g++ {
		for j := 0; j < 32; j++ {
			tr.Insert(tuple.Tuple{uint64(g), uint64(j)})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tr.AscendPrefix(tuple.Tuple{uint64(i % 1000)}, func(tuple.Tuple) bool { n++; return true })
		if n != 32 {
			b.Fatal("bad scan")
		}
	}
}

// TestQuickInsertHasAgainstMap drives Insert/Has with quick-generated keys
// against a map model.
func TestQuickInsertHasAgainstMap(t *testing.T) {
	f := func(keys []uint8) bool {
		tr := New()
		ref := map[uint8]bool{}
		for _, k := range keys {
			ins := tr.Insert(tuple.Tuple{uint64(k)})
			if ins == ref[k] {
				return false
			}
			ref[k] = true
		}
		for k := 0; k < 256; k++ {
			if tr.Has(tuple.Tuple{uint64(k)}) != ref[uint8(k)] {
				return false
			}
		}
		return tr.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeleteAgainstMap drives interleaved Insert/Delete with
// quick-generated operations against a map model.
func TestQuickDeleteAgainstMap(t *testing.T) {
	f := func(ops []int16) bool {
		tr := New()
		ref := map[uint64]bool{}
		for _, op := range ops {
			k := uint64(op) & 0x3f
			if op >= 0 {
				ins := tr.Insert(tuple.Tuple{k})
				if ins == ref[k] {
					return false
				}
				ref[k] = true
			} else {
				del := tr.Delete(tuple.Tuple{k})
				if del != ref[k] {
					return false
				}
				delete(ref, k)
			}
			if tr.Len() != len(ref) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestResetRefillAllocFree pins node reuse: a tree emptied and refilled —
// what every Δ version goes through each iteration — takes its nodes back
// from the free list, leaves and interior nodes alike, and copies tuple
// words into them; nothing reaches the allocator.
func TestResetRefillAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ts := make([]tuple.Tuple, 5000)
	for i := range ts {
		ts[i] = tuple.Tuple{uint64(rng.Intn(400)), uint64(rng.Intn(400)), uint64(i)}
	}
	tr := New()
	refill := func() {
		tr.Reset()
		for _, k := range ts {
			tr.Insert(k)
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(20, refill); allocs != 0 {
		t.Errorf("Reset + refill of %d tuples: %v allocs, want 0", len(ts), allocs)
	}
	if tr.Len() != len(ts) {
		t.Fatalf("Len = %d after refill, want %d", tr.Len(), len(ts))
	}
}

// words returns the tree's tuples laid end to end, in order.
func words(tr *Tree) []tuple.Value {
	var out []tuple.Value
	tr.Ascend(func(t tuple.Tuple) bool {
		out = append(out, t...)
		return true
	})
	return out
}

// TestBuildMatchesInserts checks the bottom-up build against per-tuple
// inserts at every size around the node and level boundaries.
func TestBuildMatchesInserts(t *testing.T) {
	sizes := []int{0, 1, 2, minItems, maxItems, maxItems + 1, 2*maxItems + 1, 1023, 1024, 1025, 5000, 32767, 32768, 40000}
	for _, n := range sizes {
		var run []tuple.Value
		want := New()
		for i := 0; i < n; i++ {
			k := tuple.Tuple{uint64(i / 7), uint64(i % 7)}
			run = append(run, k...)
			want.Insert(k)
		}
		got := New()
		got.Build(2, run)
		if got.Len() != n {
			t.Fatalf("Build of %d tuples: Len = %d", n, got.Len())
		}
		// reserve takes exactly the nodes build uses: none is left over.
		if got.free != [2]*node{} {
			t.Fatalf("Build of %d tuples left unused nodes on the free list", n)
		}
		checkShape(t, got)
		a, b := words(got), words(want)
		if len(a) != len(b) {
			t.Fatalf("Build of %d tuples serializes %d words, inserts %d", n, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("Build of %d tuples differs from inserts at word %d", n, i)
			}
		}
		// A built tree must keep working as a tree.
		if n > 0 {
			if !got.Has(tuple.Tuple{uint64((n - 1) / 7), uint64((n - 1) % 7)}) || got.Insert(tuple.Tuple{0, 0}) {
				t.Fatalf("Build of %d tuples: lookups disagree with contents", n)
			}
			if !got.Delete(tuple.Tuple{0, 0}) || got.Len() != n-1 {
				t.Fatalf("Build of %d tuples: delete failed", n)
			}
			checkShape(t, got)
		}
	}
}

func TestBuildRejectsUnsortedRun(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted a run that is not strictly ascending")
		}
	}()
	New().Build(1, []tuple.Value{1, 3, 3})
}

// TestMergePrefixReplacesInPlace covers the aggregated-index discipline at
// the hand-written level: one tuple per prefix, the dependent words
// overwritten where they stand, and only the tuples that changed the tree
// left in the batch.
func TestMergePrefixReplacesInPlace(t *testing.T) {
	tr := New()
	var batch Run
	merge := func(step int, value func(i int) uint64) {
		batch.Reset(3)
		for i := 0; i < 2000; i += step {
			batch.Append(tuple.Tuple{uint64(i / 50), uint64(i % 50), value(i)})
		}
		tr.MergePrefix(2, &batch)
	}
	merge(1, func(int) uint64 { return 1000 })
	if tr.Len() != 2000 || batch.Len() != 2000 {
		t.Fatalf("first merge: tree holds %d, batch %d, want 2000 each", tr.Len(), batch.Len())
	}
	// Every third key again: the odd ones change, the even ones rewrite the
	// value they hold and stay out of the batch.
	odd := func(i int) uint64 {
		if i%2 == 1 {
			return uint64(i)
		}
		return 1000
	}
	merge(3, odd)
	if tr.Len() != 2000 || batch.Len() != 333 {
		t.Fatalf("second merge: tree holds %d, batch %d, want 2000 and 333", tr.Len(), batch.Len())
	}
	batch.Ascend(func(tt tuple.Tuple) bool {
		if i := tt[0]*50 + tt[1]; i%6 != 3 || tt[2] != i {
			t.Fatalf("batch kept (%d,%d,%d), which did not change the tree", tt[0], tt[1], tt[2])
		}
		return true
	})
	tr.Ascend(func(tt tuple.Tuple) bool {
		i := tt[0]*50 + tt[1]
		want := uint64(1000)
		if i%6 == 3 {
			want = i
		}
		if tt[2] != want {
			t.Fatalf("key (%d,%d) holds %d, want %d", tt[0], tt[1], tt[2], want)
		}
		return true
	})
}

func TestArityMismatchPanics(t *testing.T) {
	tr := New()
	tr.Insert(tuple.Tuple{1, 2})
	if tr.Has(tuple.Tuple{1}) || tr.Delete(tuple.Tuple{1, 2, 3}) {
		t.Fatal("lookups of another arity matched")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of another arity did not panic")
		}
	}()
	tr.Insert(tuple.Tuple{1, 2, 3})
}

func BenchmarkHas(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	tr := New()
	ks := make([]tuple.Tuple, 100000)
	for i := range ks {
		ks[i] = tuple.Tuple{uint64(rng.Intn(5000)), uint64(rng.Intn(5000)), uint64(rng.Intn(100))}
		tr.Insert(ks[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tr.Has(ks[i%len(ks)]) {
			b.Fatal("missing")
		}
	}
}
