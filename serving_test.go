package paralagg_test

// Serving-engine tests at the public API: point lookups answer from resident
// state in O(lookup) without touching the fixpoint, insert batches
// re-converge strictly cheaper than recomputing, and the deprecated Rank
// accessors stay equivalent to the typed Query surface they delegate to.

import (
	"context"
	"sort"
	"sync"
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

// chainGraph is a directed path 0 -w1-> 1 -w2-> 2 -w1-> 3 with a 0 -w5-> 3
// shortcut candidate left out, so every SSSP distance from source 0 is known
// by hand: dist(0,0)=0, dist(0,1)=1, dist(0,2)=3, dist(0,3)=4.
func chainGraph() *graph.Graph {
	return &graph.Graph{
		Name: "chain", Nodes: 4, MaxWeight: 5,
		Edges: []graph.Edge{{U: 0, V: 1, W: 1}, {U: 1, V: 2, W: 2}, {U: 2, V: 3, W: 1}},
	}
}

func openSSSP(t testing.TB, g *graph.Graph, ranks int) *paralagg.Engine {
	t.Helper()
	eng, err := paralagg.Open(paralagg.Config{Ranks: ranks, Subs: 2}, queries.SSSPProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(context.Background(), paralagg.Mutation{
		Load: func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) },
	}); err != nil {
		eng.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// TestEnginePointQueries pins the exact-lookup path: the full independent
// key of an aggregated relation answers from the accumulator probe.
func TestEnginePointQueries(t *testing.T) {
	eng := openSSSP(t, chainGraph(), 2)
	ctx := context.Background()

	want := map[uint64]uint64{0: 0, 1: 1, 2: 3, 3: 4}
	for dst, d := range want {
		qr, err := eng.Query(ctx, paralagg.QuerySpec{
			Relation: "spath", Key: []paralagg.Value{0, paralagg.Value(dst)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !qr.Found || len(qr.Value) != 1 || uint64(qr.Value[0]) != d {
			t.Errorf("dist(0,%d): got found=%v value=%v, want %d", dst, qr.Found, qr.Value, d)
		}
	}
	// A vertex the source cannot reach is absent, not zero.
	if qr, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: []paralagg.Value{3, 0}}); err != nil {
		t.Fatal(err)
	} else if qr.Found {
		t.Errorf("dist(3,0): got %v, want not found", qr.Value)
	}

	// Count and top-k over the same resident state.
	if qr, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", CountOnly: true}); err != nil {
		t.Fatal(err)
	} else if qr.Count != 4 {
		t.Errorf("count(spath) = %d, want 4", qr.Count)
	}
	qr, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Limit: 2, OrderBy: 2, Desc: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(qr.Tuples) != 2 || uint64(qr.Tuples[0][2]) != 4 || uint64(qr.Tuples[1][2]) != 3 {
		t.Errorf("top-2 by distance = %v, want distances 4 then 3", qr.Tuples)
	}
}

// TestEngineQueryRunsNoFixpoint pins the O(lookup) bar: answering queries
// must not advance the engine's iteration counter — the query path holds no
// collectives and no fixpoint.
func TestEngineQueryRunsNoFixpoint(t *testing.T) {
	eng := openSSSP(t, chainGraph(), 2)
	ctx := context.Background()

	before := eng.Stats()
	for i := 0; i < 50; i++ {
		if _, err := eng.Query(ctx, paralagg.QuerySpec{
			Relation: "spath", Key: []paralagg.Value{0, paralagg.Value(i % 4)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	after := eng.Stats()
	if after.Iterations != before.Iterations {
		t.Errorf("queries advanced the fixpoint: %d -> %d iterations", before.Iterations, after.Iterations)
	}
	if after.Applies != before.Applies {
		t.Errorf("queries counted as applies: %d -> %d", before.Applies, after.Applies)
	}
	if got := after.Queries - before.Queries; got != 50 {
		t.Errorf("query counter advanced by %d, want 50", got)
	}
}

// TestEngineInsertCheaperThanScratch pins the tentpole saving on a smoke
// graph: continuing the fixpoint from a seeded Δ must re-converge in
// strictly fewer iterations than a fresh engine recomputing the post-insert
// graph from zero.
func TestEngineInsertCheaperThanScratch(t *testing.T) {
	g := graph.Grid("serve-grid", 4, 4, 8, 21)
	inserts := []paralagg.Tuple{{0, 15, 2}, {0, 10, 1}}

	eng := openSSSP(t, g, 2)
	st, err := eng.Apply(context.Background(), paralagg.Mutation{
		Insert: map[string][]paralagg.Tuple{"edge": inserts},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Incremental {
		t.Fatal("insert batch did not take the incremental path")
	}

	scratch := graph.Graph{Name: "serve-grid+ins", Nodes: g.Nodes, MaxWeight: g.MaxWeight, Edges: g.Edges}
	for _, tp := range inserts {
		scratch.Edges = append(scratch.Edges, graph.Edge{U: uint64(tp[0]), V: uint64(tp[1]), W: uint64(tp[2])})
	}
	res, err := paralagg.Exec(queries.SSSPProgram(), paralagg.Config{Ranks: 2, Subs: 2},
		func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, &scratch, []uint64{0}) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations >= res.Iterations {
		t.Errorf("incremental insert took %d iterations, from-scratch %d — not strictly cheaper",
			st.Iterations, res.Iterations)
	}
}

// TestTopKScanAllocsBoundedByLimit pins the streaming scan: a prefix top-k
// read walks views of the accumulator arena, filters on the prefix before
// anything is copied, and clones only the tuples that make it into the best
// Limit — so its allocations are bounded by Limit plus a constant (the
// result slice's growth and the call's fixed overhead), not by how many
// tuples the prefix matches. The answer must equal the reference: every
// match, sorted by (OrderBy, then lexicographically), cut at Limit.
func TestTopKScanAllocsBoundedByLimit(t *testing.T) {
	const limit = 10
	eng := openSSSP(t, graph.Grid("scan-grid", 24, 24, 8, 5), 2)
	ctx := context.Background()
	for _, spec := range []paralagg.QuerySpec{
		{Relation: "spath", Key: []paralagg.Value{0}, Limit: limit, OrderBy: 2},
		{Relation: "spath", Key: []paralagg.Value{0}, Limit: limit, OrderBy: 2, Desc: true},
		{Relation: "edge", Limit: limit, OrderBy: 1, Desc: true},
	} {
		all := spec
		all.Limit = 0
		ref, err := eng.Query(ctx, all)
		if err != nil {
			t.Fatal(err)
		}
		if ref.Count < 5*limit {
			t.Fatalf("%+v matches only %d tuples: the bound would not bite", spec, ref.Count)
		}
		want := ref.Tuples
		sort.SliceStable(want, func(i, j int) bool { // ref.Tuples is already in lexicographic order
			a, b := want[i][spec.OrderBy], want[j][spec.OrderBy]
			if spec.Desc {
				return a > b
			}
			return a < b
		})
		var got paralagg.QueryResult
		allocs := testing.AllocsPerRun(50, func() {
			if got, err = eng.Query(ctx, spec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > limit+8 {
			t.Errorf("%+v: %v allocs over %d matches, want at most Limit+8 = %d", spec, allocs, ref.Count, limit+8)
		}
		if got.Count != ref.Count || len(got.Tuples) != limit {
			t.Fatalf("%+v: count %d, %d tuples; want count %d, %d tuples", spec, got.Count, len(got.Tuples), ref.Count, limit)
		}
		for i, tp := range got.Tuples {
			if !tp.Equal(want[i]) {
				t.Errorf("%+v: tuple %d = %v, want %v", spec, i, tp, want[i])
			}
		}
	}
}

// TestEngineScansBetweenApplies runs prefix scans, top-k reads and exact
// lookups from several goroutines while insert and delete batches go
// through Apply. Reads hold the engine's read lock and walk tree nodes and
// arena rows as views, using no storage of the tree's own, so any number of
// them may overlap — and under the race detector (`make verify`) any write
// a reader could observe mid-batch, or any scratch two readers shared, is a
// failure. Every answer must also be internally consistent: matches carry
// the asked prefix, top-k comes back ordered, and a scan counts what it
// returns.
func TestEngineScansBetweenApplies(t *testing.T) {
	g := graph.Grid("race-grid", 12, 12, 8, 3)
	eng := openSSSP(t, g, 2)
	ctx := context.Background()
	shortcuts := []paralagg.Tuple{{0, 143, 1}, {0, 77, 2}, {5, 140, 1}, {11, 132, 3}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				src := paralagg.Value((i + r) % g.Nodes)
				top, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: []paralagg.Value{0}, Limit: 10, OrderBy: 2})
				if err != nil {
					t.Error(err)
					return
				}
				for j, tp := range top.Tuples {
					if tp[0] != 0 || (j > 0 && top.Tuples[j-1][2] > tp[2]) {
						t.Errorf("top-10 of source 0 out of order or off prefix: %v", top.Tuples)
						return
					}
				}
				out, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "edge", Key: []paralagg.Value{src}})
				if err != nil {
					t.Error(err)
					return
				}
				if uint64(len(out.Tuples)) != out.Count {
					t.Errorf("edge scan of %d counted %d but returned %d tuples", src, out.Count, len(out.Tuples))
					return
				}
				for _, tp := range out.Tuples {
					if tp[0] != src {
						t.Errorf("edge scan of %d returned %v", src, tp)
						return
					}
				}
				if _, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: []paralagg.Value{0, src}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	for round := 0; round < 6; round++ {
		batch := map[string][]paralagg.Tuple{"edge": shortcuts[round%2*2 : round%2*2+2]}
		if _, err := eng.Apply(ctx, paralagg.Mutation{Insert: batch}); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Apply(ctx, paralagg.Mutation{Delete: batch}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Every shortcut was deleted again: the resident state must be the
	// original graph's answer.
	ref, _ := queries.RefSSSPMulti(g, []uint64{0})
	all, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath"})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Tuples) != len(ref) {
		t.Fatalf("%d spath tuples after the batches, reference has %d", len(all.Tuples), len(ref))
	}
	for _, tp := range all.Tuples {
		if d, ok := ref[[2]uint64{uint64(tp[0]), uint64(tp[1])}]; !ok || d != uint64(tp[2]) {
			t.Errorf("spath%v disagrees with the reference distance %d (present %v)", tp, d, ok)
		}
	}
}
