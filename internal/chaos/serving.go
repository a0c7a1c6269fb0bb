// Serving differentials: the incremental maintenance path must be
// indistinguishable from recomputation. For every mutation batch a scenario
// streams into a long-lived engine, a from-scratch execution over the same
// post-batch base facts fixes the expected answer, and the engine's resident
// relations must match it bit for bit (order-independent fingerprints over
// every rank's tuples). Insert-only batches additionally prove the
// communication saving: re-convergence from the seeded Δ must cost strictly
// fewer iterations than the from-scratch fixpoint.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
	"paralagg/internal/transport/tcp"
)

// ServingBatch is one streamed mutation: edges, and for the spath kinds
// source seeds spath(s, s, 0), added and removed together.
type ServingBatch struct {
	Name          string
	InsertEdges   []graph.Edge
	DeleteEdges   []graph.Edge
	InsertSources []uint64
	DeleteSources []uint64
}

// ServingScenario is one serving workload: a base graph, a query program
// over it, and a sequence of mutation batches.
type ServingScenario struct {
	Name string
	// Kind selects the program: "sssp" (weighted, 3-ary edge), "lsp" (SSSP
	// plus the two-stratum longest shortest path) or "cc" (undirected, 2-ary
	// edge).
	Kind string
	Base *graph.Graph
	// Sources seeds SSSP and LSP (ignored for cc).
	Sources []uint64
	// Subs is the sub-bucket count (skew scenarios exercise sub-bucket
	// placement on the incremental path too).
	Subs int
	// Fallback marks a program the engine cannot maintain incrementally:
	// every batch must take the from-scratch fallback. Every other
	// scenario's batches must all be incremental.
	Fallback bool
	Batches  []ServingBatch
}

// ServingScenarios returns the standard serving workloads: insert-only,
// delete-only, and mixed batches over SSSP and connected components — the
// mixed SSSP scenario also inserts and then deletes a source seed, a
// derived relation's base fact — a hub-skewed SSSP scenario with
// sub-bucketing on, and two-stratum LSP, which only the from-scratch
// fallback maintains. Delete batches reference real base edges (exact
// tuples, weights included) sampled from the generated graphs.
func ServingScenarios() []ServingScenario {
	ssspIns := graph.Grid("serving-sssp-ins", 4, 4, 8, 21)
	ssspDel := graph.Grid("serving-sssp-del", 4, 4, 8, 22)
	ssspMix := graph.Grid("serving-sssp-mix", 4, 4, 8, 23)
	ccG := graph.Grid("serving-cc", 4, 4, 1, 24)
	skewG := graph.Social("serving-social", 6, 200, 3, 24, 64, 25)
	withHeavyHub(skewG)
	lspG := graph.Grid("serving-lsp", 4, 4, 8, 26)

	// The cc scenarios split the grid between columns 1 and 2: the base
	// starts disconnected, inserts bridge the halves (component merge), and
	// deletes re-cut bridges (component split — the hard invalidation case).
	ccCut, ccBridges := cutColumns(ccG, 4, 1, 2)

	return []ServingScenario{
		{
			Name: "sssp-insert", Kind: "sssp", Base: ssspIns, Sources: []uint64{0, 5},
			Batches: []ServingBatch{
				{Name: "shortcuts", InsertEdges: []graph.Edge{
					{U: 0, V: 15, W: 2}, {U: 0, V: 10, W: 1},
				}},
				{Name: "more-shortcuts", InsertEdges: []graph.Edge{
					{U: 5, V: 12, W: 1}, {U: 3, V: 9, W: 2}, {U: 10, V: 3, W: 1},
				}},
			},
		},
		{
			Name: "sssp-delete", Kind: "sssp", Base: ssspDel, Sources: []uint64{0, 5},
			Batches: []ServingBatch{
				{Name: "cut-a", DeleteEdges: sampleEdges(ssspDel, 0, 5)},
				{Name: "cut-b", DeleteEdges: sampleEdges(ssspDel, 2, 5)},
			},
		},
		{
			Name: "sssp-mixed", Kind: "sssp", Base: ssspMix, Sources: []uint64{0},
			Batches: []ServingBatch{
				{
					Name:        "swap",
					InsertEdges: []graph.Edge{{U: 0, V: 13, W: 1}, {U: 7, V: 2, W: 3}},
					DeleteEdges: sampleEdges(ssspMix, 1, 7),
				},
				{
					Name:        "revert",
					InsertEdges: sampleEdges(ssspMix, 1, 7),
					DeleteEdges: []graph.Edge{{U: 0, V: 13, W: 1}},
				},
				{Name: "seed", InsertSources: []uint64{10}},
				{Name: "unseed", DeleteSources: []uint64{10}},
			},
		},
		{
			Name: "cc", Kind: "cc", Base: ccCut,
			Batches: []ServingBatch{
				{Name: "bridge", InsertEdges: ccBridges[:1]},
				{Name: "split", DeleteEdges: ccBridges[:1]},
				{
					Name:        "churn",
					InsertEdges: ccBridges[1:3],
					DeleteEdges: sampleEdges(ccCut, 3, 9),
				},
			},
		},
		{
			Name: "sssp-skew", Kind: "sssp", Base: skewG, Sources: []uint64{0}, Subs: 4,
			Batches: []ServingBatch{
				{Name: "hub-in", InsertEdges: []graph.Edge{
					{U: 1, V: 0, W: 1}, {U: 0, V: 2, W: 2},
				}},
				{Name: "hub-out", DeleteEdges: sampleEdges(skewG, 4, 11)},
			},
		},
		{
			Name: "lsp", Kind: "lsp", Base: lspG, Sources: []uint64{0}, Fallback: true,
			Batches: []ServingBatch{
				{Name: "shortcut", InsertEdges: []graph.Edge{{U: 0, V: 15, W: 1}}},
				{Name: "cut", DeleteEdges: sampleEdges(lspG, 0, 5)},
				{Name: "reseed", InsertSources: []uint64{5}, DeleteEdges: []graph.Edge{{U: 0, V: 15, W: 1}}},
			},
		},
	}
}

// sampleEdges picks every stride-th base edge starting at off — existing
// exact tuples a delete batch can target.
func sampleEdges(g *graph.Graph, off, stride int) []graph.Edge {
	var out []graph.Edge
	for i := off; i < len(g.Edges); i += stride {
		out = append(out, g.Edges[i])
	}
	if len(out) > 4 {
		out = out[:4]
	}
	return out
}

// cutColumns removes every grid edge crossing between columns a and b
// (both directions), returning the cut graph and the removed bridge edges
// (one direction each; cc mutations mirror them).
func cutColumns(g *graph.Graph, cols, a, b int) (*graph.Graph, []graph.Edge) {
	crossing := func(u, v uint64) bool {
		cu, cv := int(u)%cols, int(v)%cols
		return (cu == a && cv == b) || (cu == b && cv == a)
	}
	cut := &graph.Graph{Name: g.Name + "-cut", Nodes: g.Nodes, MaxWeight: g.MaxWeight}
	var bridges []graph.Edge
	for _, e := range g.Edges {
		if crossing(e.U, e.V) {
			if e.U < e.V { // one direction per undirected bridge
				bridges = append(bridges, e)
			}
			continue
		}
		cut.Edges = append(cut.Edges, e)
	}
	return cut, bridges
}

// servingProg returns the program, loader, compared relations, and the
// per-batch tuple shape for a scenario kind.
func servingProg(sc ServingScenario) (prog *paralagg.Program, load func(*paralagg.Rank) error, rels []string, err error) {
	load = func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, sc.Base, sc.Sources) }
	switch sc.Kind {
	case "sssp":
		return queries.SSSPProgram(), load, []string{"edge", "spath"}, nil
	case "lsp":
		return queries.LspProgram(), load, []string{"edge", "spath", "spnorm", "lsp"}, nil
	case "cc":
		return queries.CCProgram(), func(rk *paralagg.Rank) error {
			return queries.LoadCC(rk, sc.Base)
		}, []string{"edge", "cc"}, nil
	}
	return nil, nil, nil, fmt.Errorf("chaos serving: unknown scenario kind %q", sc.Kind)
}

// facts maps one side of a batch to the base facts it names: edge tuples,
// {u,v,w} for sssp and lsp, both directions of {u,v} for cc (matching
// LoadCC's undirected closure), and spath seeds {s,s,0}.
func facts(kind string, edges []graph.Edge, sources []uint64) map[string][]paralagg.Tuple {
	m := map[string][]paralagg.Tuple{}
	for _, e := range mirrored(kind, edges) {
		t := paralagg.Tuple{e.U, e.V, e.W}
		if kind == "cc" {
			t = t[:2]
		}
		m["edge"] = append(m["edge"], t)
	}
	for _, s := range sources {
		m["spath"] = append(m["spath"], paralagg.Tuple{s, s, 0})
	}
	return m
}

// servingSide is the engine side of a serving differential: one in-process
// engine, or one engine per member of a loopback TCP gang. Every call runs
// on all members in lockstep.
type servingSide struct {
	engs []*paralagg.Engine
	trs  []*tcp.Transport
}

func openServing(prog *paralagg.Program, cfg paralagg.Config, ranks int, sockets bool) (*servingSide, error) {
	s := &servingSide{engs: make([]*paralagg.Engine, 1)}
	if sockets {
		var err error
		if s.trs, err = gang(ranks, nil); err != nil {
			return nil, err
		}
		s.engs = make([]*paralagg.Engine, ranks)
	} else {
		cfg.Ranks = ranks
	}
	if err := s.each(func(i int) (err error) {
		member := cfg
		if s.trs != nil {
			member.Transport = s.trs[i]
		}
		s.engs[i], err = paralagg.Open(member, prog)
		return err
	}); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *servingSide) each(call func(i int) error) error {
	return errors.Join(lockstep(len(s.engs), call)...)
}

// apply runs one batch on every member and returns the first member's
// stats (collective outcomes, identical on every member).
func (s *servingSide) apply(m paralagg.Mutation) (paralagg.ApplyStats, error) {
	stats := make([]paralagg.ApplyStats, len(s.engs))
	err := s.each(func(i int) (err error) {
		stats[i], err = s.engs[i].Apply(context.Background(), m)
		return err
	})
	return stats[0], err
}

func (s *servingSide) close() {
	s.each(func(i int) error {
		if s.engs[i] != nil {
			s.engs[i].Close()
		}
		return nil
	})
	for _, tr := range s.trs {
		tr.Close()
	}
}

// ServingDifferential streams sc's batches into one long-lived engine side
// at the given rank count — an in-process engine, or with sockets one engine
// per member of a loopback TCP gang — and after the initial load and every
// batch compares the resident relations against a from-scratch execution
// over the same post-batch facts: they must be bit-identical every time.
// Every batch must take the path the scenario promises (incremental, or the
// from-scratch fallback); every incremental insert-only batch must also
// re-converge in strictly fewer iterations than its from-scratch control —
// the serving engine's reason to exist — and an incremental scenario that
// deletes must actually drive the invalidation path (rounds and drops
// nonzero) rather than silently degenerating to a no-op. The engine's world
// and the control worlds all run under schedule.
func ServingDifferential(sc ServingScenario, schedule string, ranks int, sockets bool) (*Outcome, error) {
	prog, load, rels, err := servingProg(sc)
	if err != nil {
		return nil, err
	}
	o := &Outcome{}

	side, err := openServing(prog, paralagg.Config{Subs: sc.Subs, CollectiveSchedule: schedule}, ranks, sockets)
	if err != nil {
		return nil, fmt.Errorf("chaos serving %s: Open failed: %w", sc.Name, err)
	}
	defer side.close()

	stats, err := side.apply(paralagg.Mutation{Load: load})
	if err != nil {
		return nil, fmt.Errorf("chaos serving %s: initial Apply failed: %w", sc.Name, err)
	}

	// cur and sources track the post-batch base facts the control runs
	// replay.
	cur := slices.Clone(sc.Base.Edges)
	sources := slices.Clone(sc.Sources)

	batches, rounds, dropped, invalidated := 0, 0, uint64(0), false
	check := func(name string, st paralagg.ApplyStats, insertOnly bool) error {
		what := sc.Name + "/" + name
		if err := side.each(func(i int) error { return side.engs[i].Inspect(collect(rels, &o.Recovered)) }); err != nil {
			return fmt.Errorf("chaos serving %s: engine fingerprint failed: %w", what, err)
		}
		ctrl := &graph.Graph{
			Name: sc.Base.Name + "-" + name, Nodes: sc.Base.Nodes,
			Edges: cur, MaxWeight: sc.Base.MaxWeight,
		}
		ctrlSc := sc
		ctrlSc.Base, ctrlSc.Sources = ctrl, sources
		_, ctrlLoad, _, _ := servingProg(ctrlSc)
		res, err := exec(schedule, prog, paralagg.Config{Ranks: ranks, Subs: sc.Subs},
			ctrlLoad, collect(rels, &o.Clean))
		if err != nil {
			return fmt.Errorf("chaos serving %s: control run failed: %w", what, err)
		}
		if err := identical("serving "+what, o.Clean, o.Recovered); err != nil {
			return err
		}
		if insertOnly && st.Incremental && st.Iterations >= res.Iterations {
			return fmt.Errorf("chaos serving %s: incremental insert took %d iterations, from-scratch %d — not cheaper",
				what, st.Iterations, res.Iterations)
		}
		batches++
		rounds += st.InvalidationRounds
		dropped += st.Dropped
		invalidated = invalidated || (st.InvalidationRounds > 0 && st.Dropped > 0)
		return nil
	}
	if err := check("initial", stats, false); err != nil {
		return nil, err
	}

	deletes := false
	for _, batch := range sc.Batches {
		m := paralagg.Mutation{
			Insert: facts(sc.Kind, batch.InsertEdges, batch.InsertSources),
			Delete: facts(sc.Kind, batch.DeleteEdges, batch.DeleteSources),
		}
		deletes = deletes || len(m.Delete) > 0
		st, err := side.apply(m)
		if err != nil {
			return nil, fmt.Errorf("chaos serving %s/%s: Apply failed: %w", sc.Name, batch.Name, err)
		}
		if st.Incremental == sc.Fallback {
			return nil, fmt.Errorf("chaos serving %s/%s: Incremental = %v, want %v", sc.Name, batch.Name, st.Incremental, !sc.Fallback)
		}
		cur = fold(cur, mirrored(sc.Kind, batch.InsertEdges), mirrored(sc.Kind, batch.DeleteEdges))
		sources = fold(sources, batch.InsertSources, batch.DeleteSources)
		if err := check(batch.Name, st, len(m.Delete) == 0 && len(m.Insert) > 0); err != nil {
			return nil, err
		}
	}
	if deletes && !sc.Fallback && !invalidated {
		return nil, fmt.Errorf("chaos serving %s: no batch reported invalidation rounds — delete path untested", sc.Name)
	}
	o.Evidence = fmt.Sprintf("%d batches bit-identical (invalidation rounds=%d dropped=%d)", batches, rounds, dropped)
	return o, nil
}

// mirrored expands edges into the directed tuples the base set stores for a
// scenario kind: themselves for sssp and lsp, both directions for cc (the
// control's undirected closure regenerates a deleted direction from its
// surviving mirror otherwise).
func mirrored(kind string, edges []graph.Edge) []graph.Edge {
	if kind != "cc" {
		return edges
	}
	var out []graph.Edge
	for _, e := range edges {
		out = append(out, e, graph.Edge{U: e.V, V: e.U, W: e.W})
	}
	return out
}

// fold applies one batch to a tracked base-fact list the way the engine
// does: inserts first, so a fact in both ends up deleted.
func fold[T comparable](set, ins, del []T) []T {
	for _, x := range ins {
		if !slices.Contains(set, x) {
			set = append(set, x)
		}
	}
	return slices.DeleteFunc(set, func(x T) bool { return slices.Contains(del, x) })
}
