package paralagg

import (
	"fmt"
	"sync"
	"testing"
)

// TestExecConnectedComponents drives the full public API: declare, load,
// run, inspect.
func TestExecConnectedComponents(t *testing.T) {
	// Two components: {0,1,2} and {3,4}.
	edges := [][2]uint64{{0, 1}, {1, 2}, {3, 4}}

	p := NewProgram()
	if err := p.DeclareSet("edge", 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareAgg("cc", 1, MinAgg); err != nil {
		t.Fatal(err)
	}
	p.Add(
		R(A("cc", Var("y"), Var("z")),
			A("cc", Var("x"), Var("z")),
			A("edge", Var("x"), Var("y"))),
	)

	// Every rank's inspect goroutine records its shard here concurrently.
	var labelsMu sync.Mutex
	labels := map[uint64]uint64{}
	res, err := Exec(p, Config{Ranks: 4},
		func(rk *Rank) error {
			// Undirected edges.
			if err := rk.LoadShare("edge", len(edges), func(i int, emit func(Tuple)) {
				emit(Tuple{edges[i][0], edges[i][1]})
				emit(Tuple{edges[i][1], edges[i][0]})
			}); err != nil {
				return err
			}
			// Seed cc(n, n) for nodes 0..4.
			var seeds []Tuple
			for n := uint64(rk.ID()); n < 5; n += uint64(rk.Size()) {
				seeds = append(seeds, Tuple{n, n})
			}
			return rk.Load("cc", seeds)
		},
		func(rk *Rank) error {
			// Verify labels: min node id of each component.
			want := map[uint64]uint64{0: 0, 1: 0, 2: 0, 3: 3, 4: 3}
			var wrong uint64
			if err := rk.Each("cc", func(tt Tuple) {
				if want[tt[0]] != tt[1] {
					wrong++
				}
			}); err != nil {
				return err
			}
			if g := rk.Reduce(wrong, OpSum); g != 0 {
				return fmt.Errorf("%d wrong labels", g)
			}
			labelsMu.Lock()
			err := rk.Each("cc", func(tt Tuple) { labels[tt[0]] = tt[1] })
			labelsMu.Unlock()
			if err != nil {
				return err
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["cc"] != 5 {
		t.Fatalf("cc count = %d", res.Counts["cc"])
	}
	if res.Counts["edge"] != 6 {
		t.Fatalf("edge count = %d", res.Counts["edge"])
	}
	if res.Iterations < 2 {
		t.Fatalf("iterations = %d", res.Iterations)
	}
	if res.SimSeconds <= 0 {
		t.Fatalf("sim time = %v", res.SimSeconds)
	}
	if res.CommBytes <= 0 || res.CommMsgs <= 0 {
		t.Fatalf("comm accounting empty: %d bytes %d msgs", res.CommBytes, res.CommMsgs)
	}
	if len(res.IterPhaseSeconds) != res.Iterations {
		t.Fatalf("iteration breakdown has %d rows for %d iterations",
			len(res.IterPhaseSeconds), res.Iterations)
	}
	if res.Summary() == "" {
		t.Fatal("empty summary")
	}
}

// TestExecPlanPolicies checks every plan policy produces identical results.
func TestExecPlanPolicies(t *testing.T) {
	p := NewProgram()
	p.DeclareSet("edge", 2, 1)
	p.DeclareSet("path", 2, 1)
	p.Add(
		R(A("path", Var("x"), Var("y")), A("edge", Var("x"), Var("y"))),
		R(A("path", Var("x"), Var("z")), A("path", Var("x"), Var("y")), A("edge", Var("y"), Var("z"))),
	)
	load := func(rk *Rank) error {
		return rk.LoadShare("edge", 30, func(i int, emit func(Tuple)) {
			emit(Tuple{uint64(i % 10), uint64((i*i + 1) % 10)})
		})
	}
	var counts []uint64
	for _, plan := range []PlanPolicy{Dynamic, StaticLeft, StaticRight, AntiDynamic} {
		res, err := Exec(p, Config{Ranks: 3, Plan: plan}, load, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Counts["path"])
	}
	for _, c := range counts[1:] {
		if c != counts[0] {
			t.Fatalf("plan policies disagree: %v", counts)
		}
	}
}

// TestExecSubBucketsAgree checks sub-bucketing does not change results.
func TestExecSubBucketsAgree(t *testing.T) {
	p := NewProgram()
	p.DeclareSet("edge", 2, 1)
	p.DeclareAgg("cc", 1, MinAgg)
	p.Add(R(A("cc", Var("y"), Var("z")), A("cc", Var("x"), Var("z")), A("edge", Var("x"), Var("y"))))
	load := func(rk *Rank) error {
		// Star graph: node 0 connects to everything (maximum skew).
		if err := rk.LoadShare("edge", 40, func(i int, emit func(Tuple)) {
			emit(Tuple{0, uint64(i + 1)})
			emit(Tuple{uint64(i + 1), 0})
		}); err != nil {
			return err
		}
		var seeds []Tuple
		for n := uint64(rk.ID()); n < 41; n += uint64(rk.Size()) {
			seeds = append(seeds, Tuple{n, n})
		}
		return rk.Load("cc", seeds)
	}
	var counts []uint64
	for _, subs := range []int{1, 8} {
		res, err := Exec(p, Config{Ranks: 4, Subs: subs}, load, func(rk *Rank) error {
			var bad uint64
			if err := rk.Each("cc", func(tt Tuple) {
				if tt[1] != 0 {
					bad++
				}
			}); err != nil {
				return err
			}
			if g := rk.Reduce(bad, OpSum); g != 0 {
				return fmt.Errorf("subs=%d: %d nodes mislabeled", subs, g)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Counts["cc"])
	}
	if counts[0] != counts[1] || counts[0] != 41 {
		t.Fatalf("counts = %v, want [41 41]", counts)
	}
}

func TestExecErrors(t *testing.T) {
	p := NewProgram()
	p.DeclareSet("edge", 2, 1)
	p.Add(R(A("edge", Var("x"), Var("q")), A("edge", Var("x"), Var("y"))))
	// Head variable q unbound: Instantiate must fail on every rank.
	if _, err := Exec(p, Config{Ranks: 2}, nil, nil); err == nil {
		t.Fatal("expected instantiate error")
	}

	p2 := NewProgram()
	p2.DeclareSet("edge", 2, 1)
	if _, err := Exec(p2, Config{Ranks: 2}, func(rk *Rank) error {
		return rk.Load("nope", nil)
	}, nil); err == nil {
		t.Fatal("expected load error")
	}
}

func TestConfigDefaults(t *testing.T) {
	if (Config{}).ranks() != 4 {
		t.Error("default ranks")
	}
	if (Config{Ranks: 7}).ranks() != 7 {
		t.Error("explicit ranks")
	}
	if (Config{}).cost().WorkUnitNS == 0 {
		t.Error("default cost model empty")
	}
}

// TestParseProgramThroughExec runs a parsed text program through the full
// public pipeline.
func TestParseProgramThroughExec(t *testing.T) {
	p, err := ParseProgram(`
.set edge 2 key=1
.set reach 2 key=1
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
`)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := p.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if plan == "" {
		t.Fatal("empty plan")
	}
	res, err := Exec(p, Config{Ranks: 3}, func(rk *Rank) error {
		return rk.LoadShare("edge", 4, func(i int, emit func(Tuple)) {
			emit(Tuple{uint64(i), uint64(i + 1)})
		})
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["reach"] != 10 { // closure of a 5-node chain
		t.Fatalf("reach = %d, want 10", res.Counts["reach"])
	}
}

func TestParseProgramError(t *testing.T) {
	if _, err := ParseProgram(".bogus"); err == nil {
		t.Fatal("accepted bad program")
	}
}
