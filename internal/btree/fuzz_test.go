package btree

import (
	"math/rand"
	"slices"
	"testing"

	"paralagg/internal/tuple"
)

// FuzzAgainstSortedSlice drives one tree with a byte-coded sequence of
// Insert / Delete / MergePrefix / Reset / Build / scan operations and
// checks it, after every operation, against a sorted slice of tuples.
//
// Byte 0 picks the arity (1–4). Byte 1 picks the discipline: a set tree
// takes Insert, or — at arity 2 and up — an aggregated tree keeps one tuple
// per p-word prefix and takes a one-tuple MergePrefix batch instead. Every further operation
// is one opcode byte plus one tuple: two bytes for column 0 (so trees reach
// three levels), one for each other column (so prefixes collide).
func FuzzAgainstSortedSlice(f *testing.F) {
	// The seeds replay what btree_test.go and delete_test.go hand-pick:
	// shuffled inserts with duplicates, interleaved insert/delete churn, and
	// ascending and descending drains — at every arity, in both disciplines.
	for _, seed := range []int64{1, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		for arity := byte(0); arity < 4; arity++ {
			for mode := byte(0); mode < 4; mode++ {
				ops := make([]byte, 2+6000*(2+int(arity)+1))
				rng.Read(ops)
				ops[0], ops[1] = arity, mode
				f.Add(ops)
			}
		}
	}
	drain := []byte{1, 0}
	for _, opcode := range []byte{0, 1} { // insert 0..599 ascending, delete ascending
		for i := 0; i < 600; i++ {
			drain = append(drain, opcode, byte(i>>8), byte(i), 0)
		}
	}
	for i := 599; i >= 0; i-- { // refill, then drain descending
		drain = append(drain, 0, byte(i>>8), byte(i), 0)
	}
	for i := 599; i >= 0; i-- {
		drain = append(drain, 1, byte(i>>8), byte(i), 0)
	}
	f.Add(drain)

	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		arity := 1 + int(ops[0]%4)
		p := arity // set discipline: the whole tuple is the key
		if arity > 1 && ops[1]&1 == 1 {
			p = 1 + int(ops[1]>>1)%(arity-1)
		}
		ops = ops[2:]

		tr := New()
		var batch Run
		var ref []tuple.Tuple // ascending, distinct p-word prefixes
		find := func(k tuple.Tuple) (int, bool) {
			return slices.BinarySearchFunc(ref, k, func(e, k tuple.Tuple) int { return e.ComparePrefix(k, p) })
		}
		for step := 0; len(ops) >= 2+arity; step++ {
			opcode := ops[0]
			k := make(tuple.Tuple, arity)
			k[0] = tuple.Value(ops[1])<<8 | tuple.Value(ops[2])
			for c := 1; c < arity; c++ {
				k[c] = tuple.Value(ops[2+c] % 4)
			}
			ops = ops[2+arity:]

			switch opcode % 8 {
			case 0, 1, 2: // put
				at, have := find(k)
				if p == arity {
					if got := tr.Insert(k); got == have {
						t.Fatalf("step %d: Insert(%v) = %v with the tuple present = %v", step, k, got, have)
					}
				} else {
					n := tr.Len()
					batch.Reset(arity)
					batch.Append(k)
					tr.MergePrefix(p, &batch)
					if grew, changed := tr.Len() > n, !have || !ref[at].Equal(k); grew == have || (batch.Len() == 1) != changed {
						t.Fatalf("step %d: MergePrefix(%d, %v) grew the tree %v, left %d in the batch, with the prefix present = %v",
							step, p, k, grew, batch.Len(), have)
					}
				}
				if have {
					ref[at] = k
				} else {
					ref = slices.Insert(ref, at, k)
				}
			case 3, 4: // delete the stored tuple with k's prefix, or k itself
				at, have := find(k)
				if have && opcode%8 == 3 {
					k = ref[at]
				}
				present := have && ref[at].Equal(k)
				if got := tr.Delete(k); got != present {
					t.Fatalf("step %d: Delete(%v) = %v, want %v", step, k, got, present)
				}
				if present {
					ref = slices.Delete(ref, at, at+1)
				}
			case 5: // reset, rarely: most sequences should grow deep trees
				if k[0]%16 == 0 {
					tr.Reset()
					ref = ref[:0]
				}
			case 6: // rebuild bottom-up from every m-th survivor
				m := int(k[0]%5) + 1
				var kept []tuple.Tuple
				var run []tuple.Value
				for i, e := range ref {
					if i%m == 0 {
						kept = append(kept, e)
						run = append(run, e...)
					}
				}
				tr.Reset()
				tr.Build(arity, run)
				ref = kept
			case 7: // prefix scan
				q := int(opcode>>3) % (arity + 1)
				var want []tuple.Tuple
				for _, e := range ref {
					if e.ComparePrefix(k, q) == 0 {
						want = append(want, e)
					}
				}
				i := 0
				tr.AscendPrefix(k[:q], func(e tuple.Tuple) bool {
					if i >= len(want) || !e.Equal(want[i]) {
						t.Fatalf("step %d: AscendPrefix(%v) item %d = %v, want one of %v", step, k[:q], i, e, want)
					}
					i++
					return true
				})
				if i != len(want) {
					t.Fatalf("step %d: AscendPrefix(%v) visited %d of %d", step, k[:q], i, len(want))
				}
			}

			if tr.Len() != len(ref) {
				t.Fatalf("step %d: Len = %d, want %d", step, tr.Len(), len(ref))
			}
			if got, want := tr.MemWords(), int64(len(ref)*(arity+itemOverheadWords)); got != want {
				t.Fatalf("step %d: MemWords = %d, want %d", step, got, want)
			}
			at, have := find(k)
			if got, want := tr.Has(k), have && ref[at].Equal(k); got != want {
				t.Fatalf("step %d: Has(%v) = %v, want %v", step, k, got, want)
			}
			if step%64 == 0 {
				checkScan(t, tr, ref)
			}
		}
		checkScan(t, tr, ref)
		checkShape(t, tr)
	})
}

// checkScan compares a full Ascend — order and the contents of every
// callback view — with the reference.
func checkScan(t *testing.T, tr *Tree, ref []tuple.Tuple) {
	t.Helper()
	i := 0
	tr.Ascend(func(e tuple.Tuple) bool {
		if i >= len(ref) || !e.Equal(ref[i]) {
			t.Fatalf("Ascend item %d = %v, reference has %d items", i, e, len(ref))
		}
		i++
		return true
	})
	if i != len(ref) {
		t.Fatalf("Ascend visited %d of %d", i, len(ref))
	}
}

// checkShape verifies the B-tree invariants the operations rely on: every
// node but the root at least half full, every leaf at the same depth, one
// more child than tuples in every interior node.
func checkShape(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.root == nil {
		return
	}
	leafDepth := -1
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if n.n > maxItems || (n != tr.root && n.n < minItems) || n.n == 0 {
			t.Fatalf("node at depth %d holds %d tuples", depth, n.n)
		}
		if n.leaf() {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				t.Fatalf("leaves at depths %d and %d", leafDepth, depth)
			}
			return
		}
		if len(n.children) != n.n+1 {
			t.Fatalf("interior node with %d tuples has %d children", n.n, len(n.children))
		}
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	walk(tr.root, 0)
}

// FuzzRunAgainstTree fills one Run and a fresh Tree with the same
// byte-coded batch, several times over the one run, and checks the run's
// readers against the tree's: Len, Ascend, AscendPrefix at every prefix
// length with an early stop, and Has on every tuple of the batch and of the
// next one.
//
// Byte 0 picks the arity (1–4) and byte 1 the early stop: a prefix scan
// stops after 1 + byte 1 % 8 matches. The rest is batches, each a count
// byte and then that many tuples of one byte per column, column 0 taken
// whole and the others mod 4, so batches repeat tuples and share prefixes.
func FuzzRunAgainstTree(f *testing.F) {
	for _, seed := range []int64{1, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		for arity := byte(0); arity < 4; arity++ {
			data := make([]byte, 2+6*(1+255*(1+int(arity))))
			rng.Read(data)
			data[0] = arity
			f.Add(data)
		}
	}
	f.Add([]byte{2, 0, 3, 1, 1, 0, 0, 1, 1, 0, 2, 1, 1})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity, stop := 1+int(data[0]%4), 1+int(data[1]%8)
		var batches [][]tuple.Tuple
		for data = data[2:]; len(data) > 0; {
			n := int(data[0])
			data = data[1:]
			var batch []tuple.Tuple
			for ; n > 0 && len(data) >= arity; n-- {
				k := make(tuple.Tuple, arity)
				k[0] = tuple.Value(data[0])
				for c := 1; c < arity; c++ {
					k[c] = tuple.Value(data[c] % 4)
				}
				batch = append(batch, k)
				data = data[arity:]
			}
			batches = append(batches, batch)
		}

		var run Run
		var s tuple.Sorter
		for b, batch := range batches {
			run.Reset(arity)
			tr := New()
			for _, k := range batch {
				run.Append(k)
				tr.Insert(k)
			}
			run.Sort(&s)
			if run.Len() != tr.Len() {
				t.Fatalf("batch %d: run Len = %d, tree Len = %d", b, run.Len(), tr.Len())
			}
			var want []tuple.Tuple
			tr.Ascend(func(e tuple.Tuple) bool { want = append(want, e.Clone()); return true })
			i := 0
			run.Ascend(func(e tuple.Tuple) bool {
				if i >= len(want) || !e.Equal(want[i]) {
					t.Fatalf("batch %d: run Ascend item %d = %v, tree holds %v", b, i, e, want)
				}
				i++
				return true
			})
			if i != len(want) {
				t.Fatalf("batch %d: run Ascend visited %d of %d", b, i, len(want))
			}
			probes := batch
			if b+1 < len(batches) {
				probes = append(probes[:len(probes):len(probes)], batches[b+1]...)
			}
			for _, k := range probes {
				if run.Has(k) != tr.Has(k) {
					t.Fatalf("batch %d: run Has(%v) = %v, tree %v", b, k, run.Has(k), tr.Has(k))
				}
				for q := 0; q <= arity; q++ {
					var got, ref []tuple.Tuple
					collect := func(into *[]tuple.Tuple) func(tuple.Tuple) bool {
						return func(e tuple.Tuple) bool {
							*into = append(*into, e.Clone())
							return len(*into) < stop
						}
					}
					run.AscendPrefix(k[:q], collect(&got))
					tr.AscendPrefix(k[:q], collect(&ref))
					if !slices.EqualFunc(got, ref, tuple.Tuple.Equal) {
						t.Fatalf("batch %d: AscendPrefix(%v) stopping at %d: run %v, tree %v", b, k[:q], stop, got, ref)
					}
				}
			}
		}
	})
}
