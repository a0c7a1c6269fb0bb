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
