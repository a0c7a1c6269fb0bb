package btree

import (
	"math/rand"
	"slices"
	"testing"

	"paralagg/internal/tuple"
)

// FuzzFrozenAgainstSortedSlice drives one Frozen run and one Tree with the
// same byte-coded batches — Load (for the tree, Build from the sorted run),
// Merge, Filter — and checks both after every batch against a sorted slice
// of distinct tuples: what Merge and Filter leave in each store's copy of the
// batch, Len, Ascend, Has on every tuple of the batch and of the next one,
// and AscendPrefix with an early stop at every prefix width, the directory's
// join-key width among them.
//
// Byte 0 picks the arity (1–4), byte 1 the join-key width (byte 1 %
// (arity+1), 0 for no directory), byte 2 the early stop (1 + byte 2 % 8
// matches). The rest is batches, each an opcode byte (Load, Merge, Filter,
// or Merge after ReleaseSpare), a count byte and that many tuples of one
// byte per column, column 0 taken mod 64 and the others mod 4, so batches
// repeat tuples and share prefixes. Batch i loads from the frozen run's own
// Run when i is even and from a separate run, whose buffer it takes, when i
// is odd.
func FuzzFrozenAgainstSortedSlice(f *testing.F) {
	for _, seed := range []int64{1, 42, 99} {
		rng := rand.New(rand.NewSource(seed))
		for arity := byte(0); arity < 4; arity++ {
			data := make([]byte, 3+12*(2+40*(1+int(arity))))
			rng.Read(data)
			data[0], data[1] = arity, byte(seed)
			f.Add(data)
		}
	}
	// Load two tuples, merge one of them back and a new one, filter both.
	f.Add([]byte{1, 0, 7, 0, 2, 1, 0, 2, 1, 1, 2, 1, 0, 3, 0, 2, 2, 1, 0, 3, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		arity := 1 + int(data[0]%4)
		jk, stop := int(data[1])%(arity+1), 1+int(data[2]%8)
		type batch struct {
			op     byte
			tuples []tuple.Tuple
		}
		var batches []batch
		for data = data[3:]; len(data) >= 2; {
			b := batch{op: data[0] % 4}
			n := int(data[1])
			for data = data[2:]; n > 0 && len(data) >= arity; n-- {
				k := make(tuple.Tuple, arity)
				k[0] = tuple.Value(data[0] % 64)
				for c := 1; c < arity; c++ {
					k[c] = tuple.Value(data[c] % 4)
				}
				b.tuples = append(b.tuples, k)
				data = data[arity:]
			}
			batches = append(batches, b)
		}

		var fz Frozen
		fz.Reset(arity, jk)
		tr := New()
		var ref []tuple.Tuple // ascending, distinct
		var s tuple.Sorter
		var run, tbatch Run
		cmp := func(a, b tuple.Tuple) int { return a.Compare(b) }
		for b, bt := range batches {
			distinct := slices.Clone(bt.tuples)
			slices.SortFunc(distinct, cmp)
			distinct = slices.CompactFunc(distinct, tuple.Tuple.Equal)
			var changed []tuple.Tuple // what Merge or Filter must leave in its batch
			switch bt.op {
			case 0:
				fz.Reset(arity, jk)
				src := &fz.Run
				if b%2 == 1 {
					src = &run
					run.Reset(arity)
				}
				tbatch.Reset(arity)
				for _, k := range bt.tuples {
					src.Append(k)
					tbatch.Append(k)
				}
				fz.Load(src, &s)
				tbatch.Sort(&s)
				tr.Reset()
				tr.Build(arity, tbatch.Words())
				if src == &run && run.Len() != 0 {
					t.Fatalf("batch %d: Load left %d tuples in the run it took", b, run.Len())
				}
				ref = distinct
			default:
				run.Reset(arity)
				for _, k := range bt.tuples {
					run.Append(k)
				}
				run.Sort(&s)
				tbatch.Reset(arity)
				tbatch.Append(run.Words())
				held := func(k tuple.Tuple) bool { _, ok := slices.BinarySearchFunc(ref, k, cmp); return ok }
				if bt.op == 2 {
					fz.Filter(&run)
					tr.Filter(&tbatch)
					for _, k := range distinct {
						if held(k) {
							changed = append(changed, k)
						}
					}
					ref = slices.DeleteFunc(ref, func(k tuple.Tuple) bool {
						_, ok := slices.BinarySearchFunc(changed, k, cmp)
						return ok
					})
				} else {
					if bt.op == 3 {
						fz.ReleaseSpare()
					}
					fz.Merge(&run)
					tr.Merge(&tbatch)
					for _, k := range distinct {
						if !held(k) {
							changed = append(changed, k)
						}
					}
					ref = append(ref, changed...)
					slices.SortFunc(ref, cmp)
				}
				for name, left := range map[string]*Run{"frozen": &run, "tree": &tbatch} {
					var got []tuple.Tuple
					left.Ascend(func(e tuple.Tuple) bool { got = append(got, e.Clone()); return true })
					if !slices.EqualFunc(got, changed, tuple.Tuple.Equal) {
						t.Fatalf("batch %d (op %d): the %s's batch holds %v after, want %v", b, bt.op, name, got, changed)
					}
				}
			}

			probes := bt.tuples
			if b+1 < len(batches) {
				probes = append(probes[:len(probes):len(probes)], batches[b+1].tuples...)
			}
			for name, st := range map[string]store{"frozen": &fz, "tree": tr} {
				if st.Len() != len(ref) {
					t.Fatalf("batch %d (op %d): %s Len = %d, want %d", b, bt.op, name, st.Len(), len(ref))
				}
				i := 0
				st.Ascend(func(e tuple.Tuple) bool {
					if i >= len(ref) || !e.Equal(ref[i]) {
						t.Fatalf("batch %d (op %d): %s Ascend item %d = %v, want %v", b, bt.op, name, i, e, ref)
					}
					i++
					return true
				})
				for _, k := range probes {
					_, want := slices.BinarySearchFunc(ref, k, cmp)
					if st.Has(k) != want {
						t.Fatalf("batch %d (op %d): %s Has(%v) = %v, want %v", b, bt.op, name, k, !want, want)
					}
					for q := 0; q <= arity; q++ {
						var got, exp []tuple.Tuple
						st.AscendPrefix(k[:q], func(e tuple.Tuple) bool {
							got = append(got, e.Clone())
							return len(got) < stop
						})
						for _, e := range ref {
							if len(exp) < stop && e.ComparePrefix(k, q) == 0 {
								exp = append(exp, e)
							}
						}
						if !slices.EqualFunc(got, exp, tuple.Tuple.Equal) {
							t.Fatalf("batch %d (op %d): %s AscendPrefix(%v) at jk %d stopping at %d = %v, want %v",
								b, bt.op, name, k[:q], jk, stop, got, exp)
						}
					}
				}
			}
		}
	})
}

// store is what FuzzFrozenAgainstSortedSlice reads of both FULL shapes.
type store interface {
	Len() int
	Has(tuple.Tuple) bool
	Ascend(func(tuple.Tuple) bool)
	AscendPrefix(tuple.Tuple, func(tuple.Tuple) bool)
}

// TestFrozenBatchesAllocFree pins the ping-pong: once the run and its spare
// have grown, a Merge and a Filter of the same batch allocate nothing, the
// directory's refill included. MemWords counts the spare buffer and the
// directory, and ReleaseSpare sheds the spare.
func TestFrozenBatchesAllocFree(t *testing.T) {
	var fz Frozen
	var s tuple.Sorter
	fz.Reset(3, 1)
	for k := 0; k < 4096; k++ {
		fz.Append(tuple.Tuple{tuple.Value(k % 97), tuple.Value(k), 1})
	}
	fz.Load(&fz.Run, &s)
	var run Run
	fill := func() {
		run.Reset(3)
		for k := 0; k < 256; k++ {
			run.Append(tuple.Tuple{tuple.Value(k % 13), tuple.Value(k), 2})
		}
		run.Sort(&s)
	}
	cycle := func() {
		fill()
		fz.Merge(&run)
		if run.Len() != 256 || fz.Len() != 4096+256 {
			t.Fatalf("Merge added %d tuples, run holds %d", run.Len(), fz.Len())
		}
		fill()
		fz.Filter(&run)
		if run.Len() != 256 || fz.Len() != 4096 {
			t.Fatalf("Filter dropped %d tuples, run holds %d", run.Len(), fz.Len())
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("warm Merge and Filter: %v allocs/op, want 0", allocs)
	}
	spare := int64(cap(fz.spare))
	if want := int64(cap(fz.words)) + spare + fz.dir.MemWords(); fz.MemWords() != want || spare == 0 {
		t.Errorf("MemWords = %d, want the run, the spare (%d words) and the directory: %d", fz.MemWords(), spare, want)
	}
	before := fz.MemWords()
	fz.ReleaseSpare()
	if got := before - fz.MemWords(); got != spare {
		t.Errorf("ReleaseSpare shed %d words, the spare held %d", got, spare)
	}
}
