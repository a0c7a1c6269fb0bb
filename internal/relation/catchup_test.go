package relation_test

import (
	"fmt"
	"testing"

	"paralagg/internal/core"
	"paralagg/internal/graph"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// ssspSrc is the paper's SSSP: spath is joined on one key only, so it is
// placed on that index, whose FULL is a cache of the accumulator.
const ssspSrc = `
.set edge 3 key=1
.agg spath 2 min
spath(F, T, add(L, W)) :- spath(F, M, L), edge(M, T, W).
`

// loadSSSP instantiates SSSP on c and loads this rank's share of g's edges
// and, on rank 0, the seed of source 0.
func loadSSSP(c *mpi.Comm, g *graph.Graph, cfg core.Config) (*core.Instance, error) {
	p, err := core.Parse(ssspSrc)
	if err != nil {
		return nil, err
	}
	in, err := p.Instantiate(c, metrics.NewCollector(c.Size()), cfg)
	if err != nil {
		return nil, err
	}
	edges := tuple.NewBuffer(3, len(g.Edges)/c.Size()+1)
	for i := c.Rank(); i < len(g.Edges); i += c.Size() {
		e := g.Edges[i]
		edges.Append(tuple.Tuple{e.U, e.V, e.W})
	}
	seed := tuple.NewBuffer(3, 1)
	if c.Rank() == 0 {
		seed.Append(tuple.Tuple{0, 0, 0})
	}
	if err := in.Load("edge", edges); err != nil {
		return nil, err
	}
	return in, in.Load("spath", seed)
}

// TestOneShotSSSPCatchesUpNothing pins that a one-shot fixpoint never
// rebuilds spath's FULL: the only variant that reads it, FULL spath ⋈
// Δedge, runs in the first iteration, while FULL is still the one the seed's
// load built, and edge's Δ is empty after that.
func TestOneShotSSSPCatchesUpNothing(t *testing.T) {
	g := graph.Grid("grid", 6, 40, 8, 3)
	for ranks := 1; ranks <= 3; ranks++ {
		for _, subs := range []int{1, 4} {
			t.Run(fmt.Sprintf("ranks=%d/subs=%d", ranks, subs), func(t *testing.T) {
				err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
					cfg := core.Config{Subs: subs}
					in, err := loadSSSP(c, g, cfg)
					if err != nil {
						return err
					}
					if st := in.Run(cfg); st.TotalIters < 2 {
						return fmt.Errorf("%d iterations: the fixpoint did not get past the load", st.TotalIters)
					}
					sp := in.Relation("spath")
					if got := sp.GlobalFullCount(); got != uint64(g.Nodes) {
						return fmt.Errorf("spath reached %d of %d nodes", got, g.Nodes)
					}
					for _, ix := range sp.Indexes() {
						if n := relation.CatchUps(ix); n != 0 {
							return fmt.Errorf("rank %d: spath index %v caught up %d times", c.Rank(), ix.Perm, n)
						}
					}
					return sp.CheckInvariants()
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestServingInsertCatchesUpOncePerApply pins that an insert batch rebuilds
// each of spath's indexes at most once: the new edges' Δ is read against
// FULL spath in the first iteration of the re-run and not after it. Some
// rank does rebuild, so the inserts exercise the catch-up.
func TestServingInsertCatchesUpOncePerApply(t *testing.T) {
	g := graph.Grid("grid", 6, 40, 8, 3)
	for _, subs := range []int{1, 4} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
				cfg := core.Config{Subs: subs}
				in, err := loadSSSP(c, g, cfg)
				if err != nil {
					return err
				}
				in.Run(cfg)
				sp := in.Relation("spath")
				total := 0
				for batch := 0; batch < 4; batch++ {
					before := make([]int, len(sp.Indexes()))
					for i, ix := range sp.Indexes() {
						before[i] = relation.CatchUps(ix)
					}
					shortcut := tuple.NewBuffer(3, 1)
					if c.Rank() == batch%c.Size() {
						shortcut.Append(tuple.Tuple{0, tuple.Value(g.Nodes - 1 - batch), 1})
					}
					if _, err := in.ApplyDelta(cfg, core.ApplyInput{Inserts: map[string]*tuple.Buffer{"edge": shortcut}}); err != nil {
						return err
					}
					for i, ix := range sp.Indexes() {
						n := relation.CatchUps(ix) - before[i]
						if n > 1 {
							return fmt.Errorf("rank %d batch %d: spath index %v caught up %d times", c.Rank(), batch, ix.Perm, n)
						}
						total += n
					}
				}
				if got := c.Allreduce(uint64(total), mpi.OpSum); got == 0 {
					return fmt.Errorf("four insert batches caught nothing up")
				}
				return sp.CheckInvariants()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDeleteLeavesLocalFullStale pins the delete side of the cache: inside
// a deletion bracket, DeleteBatch rebuilds no local FULL, even a stale one,
// but only marks it stale; a FULL read there lacks the bracket's drops,
// while Lookup still finds them until EndDelete. A serving delete then
// catches spath's index up twice on each rank: where invalidation reads
// FULL inside the bracket, and where the re-derivation seeds Δ from it.
func TestDeleteLeavesLocalFullStale(t *testing.T) {
	g := graph.Grid("grid", 6, 40, 8, 3)
	// Catch-ups of spath's one index, summed over both ranks and the four
	// serving deletes, as measured: 2.0 per rank and delete.
	wantServing := map[int]int{1: 16, 4: 16}
	for _, subs := range []int{1, 4} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
				cfg := core.Config{Subs: subs}
				in, err := loadSSSP(c, g, cfg)
				if err != nil {
					return err
				}
				in.Run(cfg)
				sp := in.Relation("spath")
				ix := sp.Indexes()[0]
				sum := func(n int) int { return int(c.Allreduce(uint64(n), mpi.OpSum)) }

				// New keys on every rank leave the cache stale somewhere.
				fresh := tuple.NewBuffer(3, 8)
				for k := 0; k < 8; k++ {
					fresh.Append(tuple.Tuple{tuple.Value(1000 + 8*c.Rank() + k), 0, 5})
				}
				sp.LoadFacts(fresh)
				stale := 0
				if relation.Stale(ix) {
					stale = 1
				}
				if sum(stale) == 0 {
					return fmt.Errorf("no rank's cache went stale")
				}
				drop := tuple.Buffer{Arity: 3}
				sp.EachAcc(func(tp tuple.Tuple) {
					if tp[1]%5 == 1 {
						drop.Append(tp)
					}
				})

				sp.BeginDelete()
				before := relation.CatchUps(ix)
				dropped := sp.DeleteBatch(&drop)
				if n := sum(relation.CatchUps(ix) - before); n != 0 {
					return fmt.Errorf("DeleteBatch rebuilt the local FULL %d times", n)
				}
				if dropped == 0 || !relation.Stale(ix) && len(sp.Dropped()) > 0 {
					return fmt.Errorf("rank %d: %d keys dropped, cache stale %v", c.Rank(), dropped, relation.Stale(ix))
				}
				held := map[[2]tuple.Value]bool{}
				ix.Full().Ascend(func(st tuple.Tuple) bool {
					held[[2]tuple.Value{st[1], st[0]}] = true // stored on T, F
					return true
				})
				if got, want := sum(len(held)), sp.GlobalFullCount()-dropped; uint64(got) != want {
					return fmt.Errorf("FULL holds %d keys inside the bracket, want %d", got, want)
				}
				for w := sp.Dropped(); len(w) > 0; w = w[3:] {
					if held[[2]tuple.Value{w[0], w[1]}] {
						return fmt.Errorf("rank %d: FULL read inside the bracket holds dropped key %v", c.Rank(), w[:2])
					}
					if _, ok := sp.Lookup(w[:2]); !ok {
						return fmt.Errorf("rank %d: Lookup lost dropped key %v before EndDelete", c.Rank(), w[:2])
					}
				}
				sp.EndDelete()
				for w := sp.Dropped(); len(w) > 0; w = w[3:] {
					if _, ok := sp.Lookup(w[:2]); ok {
						return fmt.Errorf("rank %d: Lookup still finds dropped key %v after EndDelete", c.Rank(), w[:2])
					}
				}
				sp.ClearDelta() // Δ holds the drops, which FULL no longer does
				if err := sp.CheckInvariants(); err != nil {
					return err
				}

				caughtUp := 0
				for batch := 0; batch < 4; batch++ {
					shortcut := tuple.NewBuffer(3, 1)
					if c.Rank() == batch%c.Size() {
						shortcut.Append(tuple.Tuple{0, tuple.Value(g.Nodes - 1 - batch), 1})
					}
					edges := map[string]*tuple.Buffer{"edge": shortcut}
					if _, err := in.ApplyDelta(cfg, core.ApplyInput{Inserts: edges}); err != nil {
						return err
					}
					before := relation.CatchUps(ix)
					if _, err := in.ApplyDelta(cfg, core.ApplyInput{Deletes: edges}); err != nil {
						return err
					}
					caughtUp += relation.CatchUps(ix) - before
				}
				if got := sum(caughtUp); got != wantServing[subs] {
					return fmt.Errorf("four serving deletes caught spath up %d times, want %d", got, wantServing[subs])
				}
				return sp.CheckInvariants()
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
