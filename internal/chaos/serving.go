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
	"fmt"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

// ServingBatch is one streamed mutation: edges added and removed together.
type ServingBatch struct {
	Name        string
	InsertEdges []graph.Edge
	DeleteEdges []graph.Edge
}

// ServingScenario is one serving workload: a base graph, a query program
// over it, and a sequence of mutation batches.
type ServingScenario struct {
	Name string
	// Kind selects the program: "sssp" (weighted, 3-ary edge) or "cc"
	// (undirected, 2-ary edge).
	Kind string
	Base *graph.Graph
	// Sources seeds SSSP (ignored for cc).
	Sources []uint64
	// Subs is the sub-bucket count (skew scenarios exercise sub-bucket
	// placement on the incremental path too).
	Subs    int
	Batches []ServingBatch
}

// ServingScenarios returns the standard serving workloads: insert-only,
// delete-only, and mixed batches over SSSP and connected components, plus a
// hub-skewed SSSP scenario with sub-bucketing on. Delete batches reference
// real base edges (exact tuples, weights included) sampled from the
// generated graphs.
func ServingScenarios() []ServingScenario {
	ssspIns := graph.Grid("serving-sssp-ins", 4, 4, 8, 21)
	ssspDel := graph.Grid("serving-sssp-del", 4, 4, 8, 22)
	ssspMix := graph.Grid("serving-sssp-mix", 4, 4, 8, 23)
	ccG := graph.Grid("serving-cc", 4, 4, 1, 24)
	skewG := graph.Social("serving-social", 6, 200, 3, 24, 64, 25)

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
	switch sc.Kind {
	case "sssp":
		return queries.SSSPProgram(), func(rk *paralagg.Rank) error {
			return queries.LoadSSSP(rk, sc.Base, sc.Sources)
		}, []string{"edge", "spath"}, nil
	case "cc":
		return queries.CCProgram(), func(rk *paralagg.Rank) error {
			return queries.LoadCC(rk, sc.Base)
		}, []string{"edge", "cc"}, nil
	}
	return nil, nil, nil, fmt.Errorf("chaos serving: unknown scenario kind %q", sc.Kind)
}

// edgeTuples converts edges to base-fact tuples: {u,v,w} for sssp, both
// directions of {u,v} for cc (matching LoadCC's undirected closure).
func edgeTuples(kind string, edges []graph.Edge) []paralagg.Tuple {
	var out []paralagg.Tuple
	for _, e := range edges {
		if kind == "cc" {
			out = append(out,
				paralagg.Tuple{paralagg.Value(e.U), paralagg.Value(e.V)},
				paralagg.Tuple{paralagg.Value(e.V), paralagg.Value(e.U)})
		} else {
			out = append(out, paralagg.Tuple{paralagg.Value(e.U), paralagg.Value(e.V), paralagg.Value(e.W)})
		}
	}
	return out
}

// ServingDifferential streams sc's batches into one long-lived engine at the
// given rank count, and after the initial load and every batch compares the
// engine's resident relations against a from-scratch execution over the same
// post-batch facts: they must be bit-identical every time. Every incremental
// insert-only batch must also re-converge in strictly fewer iterations than
// its from-scratch control — the serving engine's reason to exist — and a
// scenario that deletes must actually drive the invalidation path (rounds
// and drops nonzero) rather than silently degenerating to a no-op. The
// engine's world and the control worlds all run under schedule.
func ServingDifferential(sc ServingScenario, schedule string, ranks int) (*Outcome, error) {
	prog, load, rels, err := servingProg(sc)
	if err != nil {
		return nil, err
	}
	o := &Outcome{}

	eng, err := paralagg.Open(paralagg.Config{
		Ranks: ranks, Subs: sc.Subs, CollectiveSchedule: schedule,
	}, prog)
	if err != nil {
		return nil, fmt.Errorf("chaos serving %s: Open failed: %w", sc.Name, err)
	}
	defer eng.Close()

	ctx := context.Background()
	stats, err := eng.Apply(ctx, paralagg.Mutation{Load: load})
	if err != nil {
		return nil, fmt.Errorf("chaos serving %s: initial Apply failed: %w", sc.Name, err)
	}

	// cur tracks the post-batch base edge set the control runs replay.
	cur := append([]graph.Edge(nil), sc.Base.Edges...)
	curSet := make(map[graph.Edge]bool, len(cur))
	for _, e := range cur {
		curSet[e] = true
	}

	batches, rounds, dropped, invalidated := 0, 0, uint64(0), false
	check := func(name string, st paralagg.ApplyStats, insertOnly bool) error {
		what := sc.Name + "/" + name
		if err := eng.Inspect(collect(rels, &o.Recovered)); err != nil {
			return fmt.Errorf("chaos serving %s: engine fingerprint failed: %w", what, err)
		}
		ctrl := &graph.Graph{
			Name: sc.Base.Name + "-" + name, Nodes: sc.Base.Nodes,
			Edges: cur, MaxWeight: sc.Base.MaxWeight,
		}
		ctrlSc := sc
		ctrlSc.Base = ctrl
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
		deletes = deletes || len(batch.DeleteEdges) > 0
		m := paralagg.Mutation{}
		if len(batch.InsertEdges) > 0 {
			m.Insert = map[string][]paralagg.Tuple{"edge": edgeTuples(sc.Kind, batch.InsertEdges)}
		}
		if len(batch.DeleteEdges) > 0 {
			m.Delete = map[string][]paralagg.Tuple{"edge": edgeTuples(sc.Kind, batch.DeleteEdges)}
		}
		st, err := eng.Apply(ctx, m)
		if err != nil {
			return nil, fmt.Errorf("chaos serving %s/%s: Apply failed: %w", sc.Name, batch.Name, err)
		}
		// Fold the batch into the tracked edge set. cc edges count both
		// directions (the control's undirected closure regenerates a deleted
		// direction from its surviving mirror otherwise).
		for _, e := range batch.InsertEdges {
			for _, d := range mirror(sc.Kind, e) {
				if !curSet[d] {
					curSet[d] = true
					cur = append(cur, d)
				}
			}
		}
		for _, e := range batch.DeleteEdges {
			for _, d := range mirror(sc.Kind, e) {
				delete(curSet, d)
			}
		}
		if len(batch.DeleteEdges) > 0 {
			kept := cur[:0:0]
			for _, e := range cur {
				if curSet[e] {
					kept = append(kept, e)
				}
			}
			cur = kept
		}
		insertOnly := len(batch.DeleteEdges) == 0 && len(batch.InsertEdges) > 0
		if err := check(batch.Name, st, insertOnly); err != nil {
			return nil, err
		}
	}
	if deletes && !invalidated {
		return nil, fmt.Errorf("chaos serving %s: no batch reported invalidation rounds — delete path untested", sc.Name)
	}
	o.Evidence = fmt.Sprintf("%d batches bit-identical (invalidation rounds=%d dropped=%d)", batches, rounds, dropped)
	return o, nil
}

// mirror expands an edge into the directed tuples the base set stores for a
// scenario kind: itself for sssp, both directions for cc.
func mirror(kind string, e graph.Edge) []graph.Edge {
	if kind == "cc" {
		return []graph.Edge{e, {U: e.V, V: e.U, W: e.W}}
	}
	return []graph.Edge{e}
}
