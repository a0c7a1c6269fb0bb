package relation

// Allocation regression tests for the hot materialization path. The word-map
// accumulator, the per-relation exchange scratch, and the single-rank
// collective fast paths together make a steady-state materialization — every
// arriving key already resident with an equal-or-better value — completely
// allocation-free. These tests pin that property so a future change cannot
// silently reintroduce per-tuple garbage.

import (
	"fmt"
	"runtime/debug"
	"testing"

	"paralagg/internal/btree"
	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// allocSubs are the sub-bucket counts the aggregated allocation pins run at:
// without sub-buckets and with them, where every record still takes the one
// route to its key's owner.
var allocSubs = []int{1, 4}

// TestAccInsertExistingAllocFree materializes batches whose every key is
// already resident with a better value: the pure probe/merge path must not
// allocate at all.
func TestAccInsertExistingAllocFree(t *testing.T) {
	for _, subs := range allocSubs {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			w := mpi.NewWorld(1)
			err := w.Run(func(c *mpi.Comm) error {
				mc := metrics.NewCollector(1)
				r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}},
					c, mc, Config{Subs: subs})
				if err != nil {
					return err
				}
				seed := accBenchBuffer(false)
				r.Materialize(0, seed, false)
				probe := accBenchBuffer(true)
				// Warm the reusable scratch (send lanes, partial table, tuple
				// buffers) once before measuring.
				r.Materialize(1, probe, false)
				allocs := testing.AllocsPerRun(100, func() {
					r.Materialize(2, probe, false)
				})
				if allocs != 0 {
					t.Errorf("existing-key accumulator materialization: %v allocs/op, want 0", allocs)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAggImprovingTwoIndexesAllocFree is the changed-tuple twin: every key
// of the batch strictly improves, so every tuple of it goes the whole way —
// accumulator merge, fresh buffer, routing to both indexes, the one-descent
// replace in the replica's FULL tree, the local index's FULL marked stale,
// and each index's Δ run refilled and sorted in the capacity the previous
// pass left. Inline node storage, the in-place overwrite and the reused runs
// and sort scratch make that path allocate nothing per changed tuple.
func TestAggImprovingTwoIndexesAllocFree(t *testing.T) {
	for _, subs := range allocSubs {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			w := mpi.NewWorld(1)
			err := w.Run(func(c *mpi.Comm) error {
				mc := metrics.NewCollector(1)
				r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}},
					c, mc, Config{Subs: subs})
				if err != nil {
					return err
				}
				// A replica keyed on the destination and the canonical index,
				// which lives with the accumulator.
				if _, err := r.AddIndex([]int{1, 0, 2}, 1); err != nil {
					return err
				}
				if _, err := r.AddIndex([]int{0, 1, 2}, 1); err != nil {
					return err
				}
				best := tuple.Value(1 << 20)
				buf := accBenchBuffer(false)
				improve := func() {
					best--
					for k := 0; k < accBenchKeys; k++ {
						buf.At(k)[2] = best
					}
					if changed := r.Materialize(1, buf, true); changed != accBenchKeys {
						t.Fatalf("improving batch changed %d keys, want %d", changed, accBenchKeys)
					}
				}
				// Two passes warm the scratch and grow the Δ runs.
				improve()
				improve()
				if allocs := testing.AllocsPerRun(100, improve); allocs != 0 {
					t.Errorf("improving materialization over two indexes: %v allocs per %d changed tuples, want 0",
						allocs, accBenchKeys)
				}
				for _, ix := range r.Indexes() {
					if d := ix.Delta(); d.IsFull() || d.Len() != accBenchKeys {
						t.Errorf("index %v: Δ is a view of FULL %v, holds %d tuples, want a run of %d",
							ix.Perm, d.IsFull(), d.Len(), accBenchKeys)
					}
					if ix.Full().Len() != accBenchKeys {
						t.Errorf("index %v holds %d FULL tuples, want %d", ix.Perm, ix.Full().Len(), accBenchKeys)
					}
				}
				return r.CheckInvariants()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSetDedupExistingAllocFree is the set-semantics twin: re-materializing
// already-stored tuples is pure dedup probing and must not allocate. Nor
// does a warm cycle that changes tuples: a DeleteBatch of half of them and a
// Materialize that puts them back each sort their Δ run (the removals, then
// the survivors of dedup) in capacity and scratch the relation keeps.
func TestSetDedupExistingAllocFree(t *testing.T) {
	w := mpi.NewWorld(1)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		r, err := New(Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		if _, err := r.AddIndex([]int{1, 0}, 1); err != nil {
			return err
		}
		buf := tuple.NewBuffer(2, accBenchKeys)
		half := tuple.NewBuffer(2, accBenchKeys/2)
		for k := 0; k < accBenchKeys; k++ {
			buf.Append(tuple.Tuple{tuple.Value(k % 37), tuple.Value(k)})
			if k%2 == 1 {
				half.Append(buf.At(k))
			}
		}
		r.Materialize(0, buf, false)
		r.Materialize(1, buf, false)
		allocs := testing.AllocsPerRun(100, func() {
			r.Materialize(2, buf, false)
		})
		if allocs != 0 {
			t.Errorf("existing-tuple set materialization: %v allocs/op, want 0", allocs)
		}
		cycle := func() {
			if got := r.DeleteBatch(half); got != uint64(half.Len()) {
				t.Errorf("dropped %d tuples, want %d", got, half.Len())
			}
			if got := r.Materialize(3, buf, false); got != uint64(half.Len()) {
				t.Errorf("re-materialized %d tuples, want %d", got, half.Len())
			}
		}
		cycle()
		cycle()
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
			t.Errorf("delete-and-reinsert set cycle: %v allocs/op, want 0", allocs)
		}
		for _, ix := range r.Indexes() {
			if d := ix.Delta(); d.IsFull() || d.Len() != half.Len() {
				t.Errorf("index %v: Δ is a view of FULL %v, holds %d tuples, want a run of %d",
					ix.Perm, d.IsFull(), d.Len(), half.Len())
			}
		}
		return r.CheckInvariants()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpAllocFree pins the rebuild of a local index's FULL from the
// accumulator: once warm, a pass that improves every key (which leaves FULL
// stale) and the FULL read that catches it up allocate nothing, because
// the permuted rows go straight into the capacity of FULL's own frozen run
// and the sort reuses what the previous catch-up left. The cache is resident
// FULL: MemWords counts its run by capacity, and ReleaseScratch sheds the
// sort scratch and keeps the cache, current.
func TestCatchUpAllocFree(t *testing.T) {
	for _, subs := range allocSubs {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			w := mpi.NewWorld(1)
			err := w.Run(func(c *mpi.Comm) error {
				r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}},
					c, metrics.NewCollector(1), Config{Subs: subs})
				if err != nil {
					return err
				}
				ix, err := r.AddIndex([]int{1, 0, 2}, 1)
				if err != nil {
					return err
				}
				r.PlaceOn(ix)
				// The keys arrive in descending order, so every catch-up sorts.
				best := tuple.Value(1 << 20)
				buf := tuple.NewBuffer(3, accBenchKeys)
				for k := accBenchKeys - 1; k >= 0; k-- {
					buf.Append(tuple.Tuple{tuple.Value(k), tuple.Value(k + 1), best})
				}
				r.Materialize(0, buf, false) // a load builds FULL itself
				cycle := func() {
					best--
					for k := 0; k < accBenchKeys; k++ {
						buf.At(k)[2] = best
					}
					r.Materialize(1, buf, true)
					if !ix.stale {
						t.Error("an improving pass left the local index's FULL current")
					}
					if n := ix.Full().Len(); n != accBenchKeys {
						t.Errorf("caught-up FULL holds %d tuples, want %d", n, accBenchKeys)
					}
				}
				cycle()
				cycle()
				before := ix.catchUps
				if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
					t.Errorf("improving pass and catch-up: %v allocs/op, want 0", allocs)
				}
				if ix.catchUps == before {
					t.Error("the FULL reads caught nothing up")
				}
				// The Δ run and the cache are resident and counted by
				// capacity; the sort scratch is counted and shed with the
				// rest of the scratch.
				counted := r.MemWords()
				run := ix.delta
				ix.delta = btree.Run{}
				if got := counted - r.MemWords(); got != run.MemWords() || got == 0 {
					t.Errorf("MemWords counts %d words of a Δ run holding %d", got, run.MemWords())
				}
				ix.delta = run
				cache := ix.frozen
				ix.frozen = btree.Frozen{}
				held := int64(cap(cache.Words()))
				if got := counted - r.MemWords(); got != held || held < int64(accBenchKeys*r.Arity) {
					t.Errorf("MemWords counts %d words of a cache whose run holds %d by capacity, %d keys of %d words",
						got, held, accBenchKeys, r.Arity)
				}
				ix.frozen = cache
				scratch, before := r.sorter.MemWords(), ix.catchUps
				r.ReleaseScratch()
				if r.sorter.MemWords() != 0 || ix.delta.MemWords() != run.MemWords() || ix.frozen.MemWords() != held {
					t.Error("ReleaseScratch kept the sort scratch, or dropped Δ or the cache")
				}
				if shed := counted - r.MemWords(); shed < scratch || scratch == 0 {
					t.Errorf("ReleaseScratch shed %d words, the sort scratch alone held %d", shed, scratch)
				}
				if ix.stale || ix.Full().Len() != accBenchKeys || ix.catchUps != before {
					t.Error("the cache was not current after ReleaseScratch")
				}
				return r.CheckInvariants()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSetLoadAllocsIndependentOfSize pins the bulk path's buffers to their
// known sizes: a set relation's first LoadFacts sizes its routing lanes, the
// candidate batch, the sort, the fresh buffer and both
// trees' nodes once from the counts it already has, so loading 64k tuples
// makes no more allocations than loading 1k. The collector is off while it
// counts: a cycle the larger batch triggers allocates in the runtime.
func TestSetLoadAllocsIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w := mpi.NewWorld(1)
	err := w.Run(func(c *mpi.Comm) error {
		allocs := map[int]float64{}
		for _, n := range []int{1 << 10, 1 << 16} {
			buf := tuple.NewBuffer(2, n)
			for k := 0; k < n; k++ {
				buf.Append(tuple.Tuple{tuple.Value(k*7919) % tuple.Value(n), tuple.Value(k)})
			}
			allocs[n] = testing.AllocsPerRun(5, func() {
				r, err := New(Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, nil, Config{Subs: 1})
				if err != nil {
					t.Fatal(err)
				}
				if got := r.LoadFacts(buf); got != uint64(n) {
					t.Fatalf("loaded %d of %d tuples", got, n)
				}
			})
		}
		if allocs[1<<16] > allocs[1<<10] {
			t.Errorf("LoadFacts of 64k tuples made %v allocations, of 1k %v: the bulk path grows with n",
				allocs[1<<16], allocs[1<<10])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestEndDeleteAllocFree pins the accumulator's in-place compaction: a warm
// cycle that drops half the keys (DeleteBatch inside a bracket, EndDelete)
// and loads them back allocates nothing, so EndDelete does not either.
func TestEndDeleteAllocFree(t *testing.T) {
	for _, subs := range allocSubs {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
				r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}},
					c, metrics.NewCollector(1), Config{Subs: subs})
				if err != nil {
					return err
				}
				all := accBenchBuffer(false)
				half := tuple.NewBuffer(3, accBenchKeys/2)
				for k := 0; k < accBenchKeys; k += 2 {
					half.Append(all.At(k))
				}
				r.Materialize(0, all, false)
				cycle := func() {
					r.BeginDelete()
					if got := r.DeleteBatch(half); got != uint64(half.Len()) {
						t.Fatalf("dropped %d keys, want %d", got, half.Len())
					}
					r.EndDelete()
					if r.LocalFullCount() != accBenchKeys-half.Len() {
						t.Fatalf("%d keys after EndDelete, want %d", r.LocalFullCount(), accBenchKeys-half.Len())
					}
					r.Materialize(1, half, false)
				}
				cycle()
				cycle()
				if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
					t.Errorf("delete-and-reload cycle: %v allocs/op, want 0", allocs)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBaseInsertDeleteAllocFree pins a base relation's batches (Config.Base)
// over its canonical index and a second one: once warm, an insert — sorted
// into Δ's run, merged into FULL's spare buffer, the directory refilled in
// place — and a delete of the same tuples, filtered the same way, allocate
// nothing. MemWords counts each frozen FULL whole, spare buffer and
// directory included, and ReleaseScratch sheds the spare buffers.
func TestBaseInsertDeleteAllocFree(t *testing.T) {
	for _, subs := range allocSubs {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
				r, err := New(Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, metrics.NewCollector(1),
					Config{Subs: subs, Base: true})
				if err != nil {
					return err
				}
				if _, err := r.AddIndex([]int{1, 0, 2}, 1); err != nil {
					return err
				}
				base := tuple.NewBuffer(3, accBenchKeys)
				batch := tuple.NewBuffer(3, 64)
				for k := 0; k < accBenchKeys; k++ {
					base.Append(tuple.Tuple{tuple.Value(k % 61), tuple.Value(k % 37), tuple.Value(k)})
					if k%8 == 0 {
						batch.Append(tuple.Tuple{tuple.Value(k % 61), tuple.Value(k % 37), tuple.Value(k + accBenchKeys)})
					}
				}
				r.LoadFacts(base)
				cycle := func() {
					if got := r.LoadFacts(batch); got != uint64(batch.Len()) {
						t.Fatalf("inserted %d tuples, want %d", got, batch.Len())
					}
					if got := r.DeleteBatch(batch); got != uint64(batch.Len()) {
						t.Fatalf("deleted %d tuples, want %d", got, batch.Len())
					}
				}
				cycle()
				cycle()
				if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
					t.Errorf("warm base insert and delete: %v allocs/op, want 0", allocs)
				}
				for _, ix := range r.Indexes() {
					if !ix.frozenFull {
						t.Fatalf("index %v of a base relation is not frozen", ix.Perm)
					}
					if n, d := ix.Full().Len(), ix.Delta(); n != accBenchKeys || d.IsFull() || d.Len() != batch.Len() {
						t.Errorf("index %v: FULL %d tuples, Δ a view %v of %d, want %d and a run of %d",
							ix.Perm, n, d.IsFull(), d.Len(), accBenchKeys, batch.Len())
					}
				}
				for _, ix := range r.Indexes() {
					counted, fz := r.MemWords(), ix.frozen
					ix.frozen = btree.Frozen{}
					if got := counted - r.MemWords(); got != fz.MemWords() {
						t.Errorf("index %v: MemWords counts %d words of a frozen FULL holding %d", ix.Perm, got, fz.MemWords())
					}
					ix.frozen = fz
				}
				counted := r.MemWords()
				r.ReleaseScratch()
				for _, ix := range r.Indexes() {
					if ix.Full().Len() != accBenchKeys {
						t.Errorf("ReleaseScratch dropped FULL tuples of index %v", ix.Perm)
					}
				}
				if shed, spares := counted-r.MemWords(), int64(2*accBenchKeys*r.Arity); shed < spares {
					t.Errorf("ReleaseScratch shed %d words, the two spare buffers alone held %d", shed, spares)
				}
				cycle()
				r.ClearDelta() // Δ holds the deleted tuples, which FULL no longer does
				return r.CheckInvariants()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestBaseLoadAllocsIndependentOfSize is TestSetLoadAllocsIndependentOfSize
// for a base relation: the load copies the batch once into FULL's run,
// sorts it in place and sizes the directory from the count of its keys, so
// loading 64k tuples makes no more allocations than loading 1k.
func TestBaseLoadAllocsIndependentOfSize(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
		allocs := map[int]float64{}
		for _, n := range []int{1 << 10, 1 << 16} {
			buf := tuple.NewBuffer(2, n)
			for k := 0; k < n; k++ {
				buf.Append(tuple.Tuple{tuple.Value(k*7919) % tuple.Value(n/4), tuple.Value(k)})
			}
			allocs[n] = testing.AllocsPerRun(5, func() {
				r, err := New(Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, nil, Config{Subs: 1, Base: true})
				if err != nil {
					t.Fatal(err)
				}
				if got := r.LoadFacts(buf); got != uint64(n) {
					t.Fatalf("loaded %d of %d tuples", got, n)
				}
			})
		}
		if allocs[1<<16] > allocs[1<<10] {
			t.Errorf("a base LoadFacts of 64k tuples made %v allocations, of 1k %v: the load grows with n",
				allocs[1<<16], allocs[1<<10])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
