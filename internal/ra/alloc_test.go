package ra

// Steady-state allocation regression: once a fixpoint has converged, running
// one more iteration — rule-variant dispatch, head materialization (empty
// candidates still exchange, flip Δ versions, and agree on the changed
// count), and the fixpoint decision — must not allocate at all on a
// single-rank world. This pins the whole reuse chain: the Fixpoint's
// candidate buffers, the relation exchange scratch, the word-map
// accumulator, and the single-rank collective fast paths.

import (
	"fmt"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/resource"
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
		// emit into a plain candidate buffer — and once the buffer and the
		// exchange lanes have their capacity, none of it may allocate, whether
		// a call matches thousands of pairs or (empty Δ) none.
		pending := relation.NewCandidates(sp)
		variant := func() {
			pending.Begin(false)
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

// TestPressureCountsAndShedsCandidateBuffers: the memory accountant's
// compute sample covers the fixpoint's candidate buffers — a set head's
// growing buffer and an aggregated head's staging chunk — besides every
// relation's storage, its Δ runs, a caught-up FULL cache and the sort
// scratch the catch-up leaves, and soft pressure releases the buffers with
// the relations' scratch, the sort's included, while the Δ runs and the
// cache stay.
func TestPressureCountsAndShedsCandidateBuffers(t *testing.T) {
	es := randGraph(60, 400, 23, 5)
	err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{})
		sp, _ := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, relation.Config{})
		spMid, _ := sp.AddIndex([]int{1, 0, 2}, 1)
		sp.PlaceOn(spMid)
		reach, _ := relation.New(relation.Schema{Name: "reach", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v, es[i].w})
		})
		seed := tuple.NewBuffer(3, 1)
		seed.Append(tuple.Tuple{0, 0, 0})
		sp.LoadFacts(seed)
		seedWords := int64(cap(spMid.Full().Words())) // the cache's run, as the seed's load left it
		fx := NewFixpoint(c, mc,
			&Join{Left: spMid, LeftRel: sp, Right: edgeRel.Canonical(), RightRel: edgeRel, Head: sp, JK: 1,
				Emit: func(l, r, out tuple.Tuple) bool {
					out[0], out[1], out[2] = l[1], r[1], l[2]+r[2]
					return true
				}},
			&Copy{Src: edgeRel.Canonical(), SrcRel: edgeRel, Head: reach,
				Emit: func(s, _, out tuple.Tuple) bool {
					out[0], out[1] = s[0], s[1]
					return true
				}})
		opts := Options{Plan: PlanDynamic, Acct: resource.NewAccountant(1 << 40)}
		fx.Run(opts)
		// The run changed spath after the seed's load filled its FULL, one
		// tuple, and read that FULL only in its first iteration, before any
		// change; reading FULL now rebuilds the cache from the accumulator,
		// its rows permuted into the cache's own run and sorted there, and
		// the sort's scratch stays behind. Everything else spath accounts
		// once its own scratch is shed is resident, its Δ runs included.
		sp.ReleaseScratch()
		resident := sp.MemWords()
		if !spMid.CatchUp() {
			return fmt.Errorf("spath's placement index was current after the run")
		}
		n := int64(sp.LocalFullCount())
		cache := int64(cap(spMid.Full().Words()))
		grown := cache - seedWords // the cache's run, counted by capacity
		if got := sp.MemWords() - resident; cache < n*int64(sp.Arity) || got < grown+n/2 {
			t.Errorf("a catch-up of %d rows grew the cache's run by %d words to %d and the relation by %d, "+
				"want the run's growth and a sort permutation of %d words", n, grown, cache, got, n/2)
		}

		var relWords, candWords int64
		for _, r := range fx.allRels {
			relWords += r.MemWords()
		}
		for _, h := range fx.heads {
			if int64(cap(fx.cands[h].Words)) == 0 {
				t.Fatalf("%s's candidate buffer has no capacity after a run", h.Name)
			}
			candWords += int64(cap(fx.cands[h].Words))
		}
		fx.pressure(opts, 100)
		if got, want := opts.Acct.UsedBytes(), (relWords+candWords)*resource.WordBytes; got != want {
			t.Errorf("accounted %d bytes; relations hold %d words and candidate buffers %d, want %d bytes",
				got, relWords, candWords, want)
		}

		// A budget the footprint sits at 90% of: soft pressure.
		opts.Acct = resource.NewAccountant(opts.Acct.UsedBytes() * 10 / 9)
		if !fx.pressure(opts, 101) {
			t.Fatal("soft pressure did not fire")
		}
		for _, h := range fx.heads {
			if n := int64(cap(fx.cands[h].Words)); n != 0 {
				t.Errorf("soft pressure left %s's candidate buffer at %d words", h.Name, n)
			}
		}
		if got, want := sp.MemWords(), resident+grown; got != want {
			t.Errorf("after soft pressure spath accounts %d words, want %d: its resident ones and the caught-up cache's %d",
				got, want, grown)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
