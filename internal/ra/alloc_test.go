package ra

// Steady-state allocation regression: once a fixpoint has converged, running
// one more iteration — rule-variant dispatch, head materialization (empty
// pending still exchanges, flips Δ versions, and agrees on the changed
// count), and the fixpoint decision — must not allocate at all on a
// single-rank world. This pins the whole reuse chain: the Fixpoint's
// prepared pending buffers, the relation exchange scratch, the word-map
// accumulator, and the single-rank collective fast paths.

import (
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

func TestSteadyStateIterationAllocFree(t *testing.T) {
	steadyStateAllocFree(t, false)
}

// The integrity path must preserve the zero-alloc property: fingerprinting
// reuses the relation's digest scratch and the 6-word Allreduce vectors, so
// turning detection on costs hashing time but no steady-state garbage.
func TestSteadyStateIterationAllocFreeIntegrity(t *testing.T) {
	steadyStateAllocFree(t, true)
}

func steadyStateAllocFree(t *testing.T, integrity bool) {
	es := randGraph(40, 160, 17, 5)
	w := mpi.NewWorld(1)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		rcfg := relation.Config{Subs: 1, Integrity: integrity}
		edgeRel, err := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, rcfg)
		if err != nil {
			return err
		}
		sp, err := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, rcfg)
		if err != nil {
			return err
		}
		spMid, err := sp.AddIndex([]int{1, 0, 2}, 1)
		if err != nil {
			return err
		}
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v, es[i].w})
		})
		seed := tuple.NewBuffer(3, 1)
		seed.Append(tuple.Tuple{0, 0, 0})
		sp.LoadFacts(seed)

		join := &Join{
			Name: "spath(f,t,min(l+w)) <- spath(f,m,l), edge(m,t,w)",
			Left: spMid, LeftRel: sp,
			Right: edgeRel.Canonical(), RightRel: edgeRel,
			Head: sp, JK: 1,
			Emit: func(l, r, out tuple.Tuple) bool {
				out[0], out[1], out[2] = l[1], r[1], l[2]+r[2]
				return true
			},
		}
		fx := NewFixpoint(c, mc, join)
		opts := Options{Plan: PlanDynamic}
		fx.Run(opts) // converge; scratch is warm from the live iterations

		// At the fixpoint, another Run performs exactly one (empty)
		// iteration and stops: nothing changed, so nothing may allocate.
		allocs := testing.AllocsPerRun(50, func() {
			fx.Run(opts)
		})
		if allocs != 0 {
			t.Errorf("steady-state fixpoint iteration: %v allocs/op, want 0", allocs)
		}

		// The kernel itself, on a Δ that is not empty: re-seed Δ with every
		// path found and run the Δ⋈FULL variant. Run only reads Δ, so each
		// call derives the same head tuples again — scan, replicate, probe,
		// emit into the pending buffer — and once the buffer and the exchange
		// lanes have their capacity, none of it may allocate, whether a call
		// matches thousands of pairs or (empty Δ) none.
		pending := tuple.NewBuffer(3, 0)
		variant := func() {
			pending.Reset()
			join.Run(1, VDelta, VFull, PlanDynamic, mc, pending)
		}
		for _, seeded := range []bool{true, false} {
			if seeded {
				sp.ResetDelta()
			} else {
				sp.ClearDelta()
			}
			variant()
			if got := pending.Len() > 0; got != seeded {
				t.Errorf("Δ seeded = %v but the variant derived %d tuples", seeded, pending.Len())
			}
			if allocs := testing.AllocsPerRun(20, variant); allocs != 0 {
				t.Errorf("Join.Run deriving %d tuples: %v allocs/op, want 0", pending.Len(), allocs)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
