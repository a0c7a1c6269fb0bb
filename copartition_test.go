package paralagg_test

import (
	"net"
	"sync"
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
	"paralagg/internal/transport/tcp"
)

// TestCoPartitionedSSSPTwoCollectivesPerIteration pins the collective budget
// of a co-partitioned program. SSSP at Subs 1 joins spath and edge on
// buckets that live on one rank, the same rank on both sides, so an
// iteration costs each rank exactly two collectives: the materialize route
// and the replica exchange, whose lane headers carry the convergence count.
// Two grids of different lengths run different numbers of iterations; the
// message counts must differ by exactly two per rank per extra iteration,
// which leaves everything else a per-Exec constant.
func TestCoPartitionedSSSPTwoCollectivesPerIteration(t *testing.T) {
	const ranks = 2
	for _, wire := range []string{"in-process", "tcp"} {
		t.Run(wire, func(t *testing.T) {
			var iters [2]int
			var msgs [2]int64
			for i, cols := range []int{20, 40} {
				g := graph.Grid("grid", 4, cols, 8, 5)
				res := execSSSP(t, wire, ranks, g)
				iters[i], msgs[i] = res.Iterations, res.CommMsgs
			}
			if iters[0] == iters[1] {
				t.Fatalf("both grids ran %d iterations: the difference proves nothing", iters[0])
			}
			// In-process the counters cover every rank; over TCP each process
			// counts its own rank only.
			counted := int64(ranks)
			if wire == "tcp" {
				counted = 1
			}
			perExec := [2]int64{msgs[0] - 2*counted*int64(iters[0]), msgs[1] - 2*counted*int64(iters[1])}
			if perExec[0] != perExec[1] {
				t.Fatalf("comm_msgs %v over %v iterations: not 2 per rank per iteration plus a constant (residues %v)",
					msgs, iters, perExec)
			}
		})
	}
}

// execSSSP runs SSSP from node 0 at Subs 1 in one in-process world or over a
// loopback TCP gang of one Exec per rank, and returns rank 0's Result.
func execSSSP(t *testing.T, wire string, ranks int, g *graph.Graph) *paralagg.Result {
	t.Helper()
	cfg := paralagg.Config{Ranks: ranks, Subs: 1, Plan: paralagg.Dynamic}
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
