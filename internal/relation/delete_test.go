package relation

import (
	"fmt"
	"slices"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// TestBoundedRetractionKeepsStrictlyBetterKeys deletes candidates that are
// worse than, equal to and better than the stored values of a $MIN
// relation on 1 and 3 ranks. Bounded, only the strictly worse candidate
// leaves its key alone; unbounded, every reached key drops. Dropped reports
// each dropped key with the value it held, after EndDelete too.
func TestBoundedRetractionKeepsStrictlyBetterKeys(t *testing.T) {
	for _, ranks := range []int{1, 3} {
		for _, bounded := range []bool{false, true} {
			t.Run(fmt.Sprintf("ranks=%d/bounded=%v", ranks, bounded), func(t *testing.T) {
				err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
					r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}},
						c, metrics.NewCollector(ranks), Config{Subs: 2})
					if err != nil {
						return err
					}
					if _, err := r.AddIndex([]int{1, 0, 2}, 1); err != nil {
						return err
					}
					if bounded {
						r.BoundRetraction()
					}
					facts := tuple.NewBuffer(3, 3)
					cands := tuple.NewBuffer(3, 3)
					if c.Rank() == 0 {
						for k, d := range []tuple.Value{5, 5, 5} {
							facts.Append(tuple.Tuple{1, tuple.Value(k), d})
						}
						// key 0: worse candidate; key 1: equal; key 2: better;
						// key 9: never derived.
						for k, d := range []tuple.Value{6, 5, 4} {
							cands.Append(tuple.Tuple{1, tuple.Value(k), d})
						}
						cands.Append(tuple.Tuple{1, 9, 0})
					}
					r.LoadFacts(facts)
					r.BeginDelete()
					dropped := r.DeleteBatch(cands)
					r.EndDelete()
					want := [][]tuple.Value{{1, 1, 5}, {1, 2, 5}}
					if !bounded {
						want = append([][]tuple.Value{{1, 0, 5}}, want...)
					}
					if dropped != uint64(len(want)) {
						t.Errorf("rank %d: DeleteBatch dropped %d keys, want %d", c.Rank(), dropped, len(want))
					}
					var got [][]tuple.Value
					for w := r.Dropped(); len(w) > 0; w = w[3:] {
						got = append(got, slices.Clone(w[:3]))
					}
					all := c.AllgatherWords(slices.Concat(got...))
					got = nil
					for ; len(all) > 0; all = all[3:] {
						got = append(got, all[:3])
					}
					slices.SortFunc(got, slices.Compare)
					if !slices.EqualFunc(got, want, slices.Equal) {
						t.Errorf("rank %d: Dropped = %v, want %v", c.Rank(), got, want)
					}
					if n := r.GlobalFullCount(); n != uint64(3-len(want)) {
						t.Errorf("rank %d: %d keys left, want %d", c.Rank(), n, 3-len(want))
					}
					r.ClearDelta() // Δ holds the drops, which FULL no longer does
					return r.CheckInvariants()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestSeedDeltaAddsSelectedFullTuples seeds a set relation with two
// indexes on 2 ranks by two column filters over a Δ that already holds a
// tuple: every index's Δ then holds that tuple and exactly the FULL tuples
// either filter selects, and the changed count is left to the next pass.
func TestSeedDeltaAddsSelectedFullTuples(t *testing.T) {
	err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
		r, err := New(Schema{Name: "e", Arity: 2, Indep: 2, Key: 1}, c, metrics.NewCollector(2), Config{Subs: 1})
		if err != nil {
			return err
		}
		if _, err := r.AddIndex([]int{1, 0}, 1); err != nil {
			return err
		}
		facts := tuple.NewBuffer(2, 16)
		if c.Rank() == 0 {
			for u := tuple.Value(0); u < 4; u++ {
				for v := tuple.Value(0); v < 4; v++ {
					facts.Append(tuple.Tuple{u, v})
				}
			}
		}
		r.LoadFacts(facts)
		r.ClearDelta()
		extra := tuple.NewBuffer(2, 1)
		if c.Rank() == 1 {
			extra.Append(tuple.Tuple{7, 7})
		}
		r.Materialize(1, extra, false)
		col0, col1 := wordmap.New(1, 0), wordmap.New(1, 0)
		col0.Upsert([]tuple.Value{2})
		col1.Upsert([]tuple.Value{3})
		r.SeedDelta([]Filter{{Col: 0, Values: col0}, {Col: 1, Values: col1}})
		if r.ChangedLast() != Unsettled {
			return fmt.Errorf("rank %d: changed count %d after SeedDelta, want Unsettled", c.Rank(), r.ChangedLast())
		}
		want := []tuple.Tuple{{0, 3}, {1, 3}, {2, 0}, {2, 1}, {2, 2}, {2, 3}, {3, 3}, {7, 7}}
		for _, ix := range r.Indexes() {
			var mine []tuple.Value
			ix.Delta().Ascend(func(st tuple.Tuple) bool {
				mine = append(mine, unpermute(ix, st)...)
				return true
			})
			var got []tuple.Tuple
			for all := c.AllgatherWords(mine); len(all) > 0; all = all[2:] {
				got = append(got, tuple.Tuple(all[:2]))
			}
			slices.SortFunc(got, func(a, b tuple.Tuple) int { return a.Compare(b) })
			if !slices.EqualFunc(got, want, tuple.Tuple.Equal) {
				t.Errorf("rank %d: index %v Δ = %v, want %v", c.Rank(), ix.Perm, got, want)
			}
		}
		r.Settle()
		if n := r.ChangedLast(); n != uint64(len(want)) {
			t.Errorf("rank %d: agreed changed count %d, want %d", c.Rank(), n, len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
