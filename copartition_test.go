package paralagg_test

import (
	"fmt"
	"maps"
	"net"
	"sync"
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
	"paralagg/internal/transport/tcp"
)

// TestCoPartitionedSSSPOneCollectivePerIteration pins the collective budget
// of an SSSP iteration. SSSP places spath on its join key, so the
// accumulator and both of its indexes share one rank per bucket, and joins
// it with edge on buckets that live on one rank, the same rank on both
// sides, at every Subs while edge holds no heavy key: on a grid. An
// iteration then costs each rank exactly one collective: the materialize
// route, whose lane headers carry the previous iteration's changed count.
// A hub of 400 out-edges on the same grid is a heavy key at Subs 2 and 4:
// its bucket splits, so the join adds its vote and its intra-bucket
// exchange, and nothing else: every aggregated record still travels
// straight to its key's owner, so the route stays one exchange. Two grids
// of different lengths run different numbers of iterations; the message
// counts must differ by exactly the budget per rank per extra iteration,
// which leaves everything else a per-Exec constant.
func TestCoPartitionedSSSPOneCollectivePerIteration(t *testing.T) {
	const ranks = 2
	for _, wire := range []string{"in-process", "tcp"} {
		t.Run(wire, func(t *testing.T) {
			for _, row := range []struct {
				subs, hub, perIter int
			}{{1, 0, 1}, {2, 0, 1}, {4, 0, 1}, {1, 400, 1}, {2, 400, 3}, {4, 400, 3}} {
				name := fmt.Sprintf("subs=%d", row.subs)
				if row.hub > 0 {
					name = "hub-" + name
				}
				t.Run(name, func(t *testing.T) {
					var iters [2]int
					var msgs [2]int64
					for i, cols := range []int{20, 40} {
						g := hubGrid(cols, row.hub)
						res := execSSSP(t, wire, paralagg.Config{Ranks: ranks, Subs: row.subs, Plan: paralagg.Dynamic}, g)
						iters[i], msgs[i] = res.Iterations, res.CommMsgs
					}
					if iters[0] == iters[1] {
						t.Fatalf("both grids ran %d iterations: the difference proves nothing", iters[0])
					}
					// In-process the counters cover every rank; over TCP each
					// process counts its own rank only.
					counted := int64(ranks)
					if wire == "tcp" {
						counted = 1
					}
					per := counted * int64(row.perIter)
					perExec := [2]int64{msgs[0] - per*int64(iters[0]), msgs[1] - per*int64(iters[1])}
					if perExec[0] != perExec[1] {
						t.Fatalf("comm_msgs %v over %v iterations: not %d per rank per iteration plus a constant (residues %v)",
							msgs, iters, row.perIter, perExec)
					}
				})
			}
		})
	}
}

// hubGrid is a 4×cols grid whose node 0 also has an edge to each of hub
// new leaves: hub is that node's out-degree beside the grid's.
func hubGrid(cols, hub int) *graph.Graph {
	g := graph.Grid("grid", 4, cols, 8, 5)
	for i := range hub {
		g.Edges = append(g.Edges, graph.Edge{U: 0, V: uint64(g.Nodes + i), W: 1})
	}
	g.Nodes += hub
	return g
}

// execSSSP runs SSSP from node 0 under cfg in one in-process world or over a
// loopback TCP gang of one Exec per rank, and returns rank 0's Result.
func execSSSP(t *testing.T, wire string, cfg paralagg.Config, g *graph.Graph) *paralagg.Result {
	t.Helper()
	ranks := cfg.Ranks
	load := func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) }
	if wire == "in-process" {
		res, err := paralagg.Exec(queries.SSSPProgram(), cfg, load, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	addrs := make([]string, ranks)
	lns := make([]net.Listener, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	results := make([]*paralagg.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := range lns {
		tr, err := tcp.New(tcp.Config{Rank: i, Peers: addrs, Listener: lns[i], Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		defer tr.Close()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := cfg
			c.Ranks, c.Transport = 0, tr
			results[i], errs[i] = paralagg.Exec(queries.SSSPProgram(), c, load, nil)
		}(i)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("gang rank %d: %v", r, err)
		}
	}
	return results[0]
}

// TestAggregatedPlacementBalances pins that an aggregated relation's entries
// spread over every rank at every sub-bucket count, which needs rankOf to
// count the bucket even when the world size divides Subs. It runs SSSP from
// one source on a grid at 2 and 4 ranks and Subs 1, 2, 3, 4 and 8: every
// rank must hold between half and one and a half times the mean of spath's
// entries.
func TestAggregatedPlacementBalances(t *testing.T) {
	g := graph.Grid("grid", 20, 30, 8, 5)
	load := func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) }
	for _, ranks := range []int{2, 4} {
		for _, subs := range []int{1, 2, 3, 4, 8} {
			var mu sync.Mutex
			var per []int
			inspect := func(rk *paralagg.Rank) error {
				qr, err := rk.Query(paralagg.QuerySpec{Relation: "spath", CountOnly: true, PerRank: true})
				mu.Lock()
				per = qr.PerRank
				mu.Unlock()
				return err
			}
			if _, err := paralagg.Exec(queries.SSSPProgram(), paralagg.Config{Ranks: ranks, Subs: subs}, load, inspect); err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, n := range per {
				total += n
			}
			mean := float64(total) / float64(ranks)
			for rank, n := range per {
				if float64(n) < 0.5*mean || float64(n) > 1.5*mean {
					t.Errorf("ranks %d, subs %d: rank %d holds %d of %d spath entries (per rank %v)", ranks, subs, rank, n, total, per)
				}
			}
		}
	}
}

// TestPhaseMetersCountTheirOwnRank pins that a metered phase counts only the
// bytes of the rank that meters it. Each process of a loopback gang sees its
// own rank's traffic alone, so the per-rank, per-phase bytes of a 2-rank SSSP
// run at Subs 2 on a grid with a heavy hub (routing, vote and intra-bucket
// phases all move bytes) must come out the same in one process as over the
// gang.
func TestPhaseMetersCountTheirOwnRank(t *testing.T) {
	type key struct {
		rank  int
		phase string
	}
	g := hubGrid(20, 400)
	var got [2]map[key]int64
	for i, wire := range []string{"in-process", "tcp"} {
		var mu sync.Mutex
		bytes := map[key]int64{}
		obsv := paralagg.ObserverFunc(func(e *paralagg.Event) {
			if e.Kind == paralagg.EventPhase {
				mu.Lock()
				bytes[key{e.Rank, e.Name}] += e.Bytes
				mu.Unlock()
			}
		})
		execSSSP(t, wire, paralagg.Config{Ranks: 2, Subs: 2, Plan: paralagg.Dynamic, Observer: obsv}, g)
		got[i] = bytes
	}
	if len(got[0]) == 0 || !maps.Equal(got[0], got[1]) {
		t.Fatalf("per-rank phase bytes in-process %v, over the gang %v", got[0], got[1])
	}
	for _, phase := range []string{"planning", "intra-bucket"} {
		if got[0][key{0, phase}]+got[0][key{1, phase}] == 0 {
			t.Errorf("the %s phase moved no bytes: %v", phase, got[0])
		}
	}
}
