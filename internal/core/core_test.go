package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/tuple"
)

func run(t *testing.T, ranks int, body func(c *mpi.Comm) error) {
	t.Helper()
	w := mpi.NewWorld(ranks)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
}

// instantiate is a test helper: build the program on one rank and return
// the first error (validation does not need a world).
func compileErr(t *testing.T, build func(p *Program)) error {
	t.Helper()
	var got error
	run(t, 1, func(c *mpi.Comm) error {
		p := NewProgram()
		build(p)
		_, got = p.Instantiate(c, metrics.NewCollector(1), Config{})
		return nil
	})
	return got
}

func TestValidationErrors(t *testing.T) {
	cases := []struct {
		name  string
		build func(p *Program)
	}{
		{"undeclared head", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.Add(R(A("zz", Var("x"), Var("y")), A("e", Var("x"), Var("y"))))
		}},
		{"undeclared body", func(p *Program) {
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Var("y")), A("zz", Var("x"), Var("y"))))
		}},
		{"head arity", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x")), A("e", Var("x"), Var("y"))))
		}},
		{"body arity", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Var("y")), A("e", Var("x"), Var("y"), Var("z"))))
		}},
		{"empty body", func(p *Program) {
			p.DeclareSet("h", 2, 1)
			p.Add(&Rule{Head: A("h", Var("x"), Var("y"))})
		}},
		{"apply in body", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Var("y")), A("e", Var("x"), Add(Var("y"), Const(1)))))
		}},
		{"unbound head var", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Var("q")), A("e", Var("x"), Var("y"))))
		}},
		{"unbound apply arg", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Add(Var("q"), Const(1))), A("e", Var("x"), Var("y"))))
		}},
		{"cartesian product", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("f", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Var("a")), A("e", Var("x"), Var("y")), A("f", Var("a"), Var("b"))))
		}},
		{"join on aggregated column", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("sp", 1, lattice.Min{})
			p.DeclareSet("h", 1, 1)
			// sp's column 2 is the aggregated value; joining e on it is the
			// paper's forbidden pattern.
			p.Add(R(A("h", Var("x")), A("sp", Var("x"), Var("d")), A("e", Var("d"), Var("y"))))
		}},
		{"cond on unbound var", func(p *Program) {
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("h", 2, 1)
			p.Add(R(A("h", Var("x"), Var("y")), A("e", Var("x"), Var("y"))).Where(Lt(Var("q"), Const(3))))
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := compileErr(t, c.build); err == nil {
				t.Fatalf("expected a compile error")
			}
		})
	}
}

func TestDeclarationErrors(t *testing.T) {
	p := NewProgram()
	if err := p.DeclareSet("e", 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareSet("e", 2, 1); err == nil {
		t.Error("duplicate declaration accepted")
	}
	if err := p.DeclareSet("", 2, 1); err == nil {
		t.Error("empty name accepted")
	}
	if err := p.DeclareSet("bad", 0, 1); err == nil {
		t.Error("zero arity accepted")
	}
	if err := p.DeclareSet("bad2", 2, 3); err == nil {
		t.Error("key > indep accepted")
	}
	if err := p.DeclareAgg("bad3", 1, nil); err == nil {
		t.Error("nil aggregator accepted")
	}
}

func TestStratification(t *testing.T) {
	p := NewProgram()
	p.DeclareSet("edge", 2, 1)
	p.DeclareSet("path", 2, 1)
	p.DeclareAgg("lsp", 1, lattice.Max{})
	p.Add(
		R(A("path", Var("x"), Var("y")), A("edge", Var("x"), Var("y"))),
		R(A("path", Var("x"), Var("z")), A("path", Var("x"), Var("y")), A("edge", Var("y"), Var("z"))),
		R(A("lsp", Const(0), Var("y")), A("path", Var("x"), Var("y"))),
	)
	strata := p.stratify(p.rules)
	if len(strata) != 2 {
		t.Fatalf("strata = %d, want 2", len(strata))
	}
	if strata[0][0].Head.Rel != "path" || len(strata[0]) != 2 {
		t.Fatalf("stratum 0 = %v", strata[0])
	}
	if strata[1][0].Head.Rel != "lsp" {
		t.Fatalf("stratum 1 = %v", strata[1])
	}
}

func TestStratificationMutualRecursion(t *testing.T) {
	p := NewProgram()
	p.DeclareSet("e", 2, 1)
	p.DeclareSet("a", 2, 1)
	p.DeclareSet("b", 2, 1)
	p.Add(
		R(A("a", Var("x"), Var("y")), A("e", Var("x"), Var("y"))),
		R(A("b", Var("x"), Var("z")), A("a", Var("x"), Var("y")), A("e", Var("y"), Var("z"))),
		R(A("a", Var("x"), Var("z")), A("b", Var("x"), Var("y")), A("e", Var("y"), Var("z"))),
	)
	strata := p.stratify(p.rules)
	if len(strata) != 1 {
		t.Fatalf("mutually recursive rules split into %d strata", len(strata))
	}
	if len(strata[0]) != 3 {
		t.Fatalf("stratum holds %d rules", len(strata[0]))
	}
}

// declTC builds the transitive-closure program.
func declTC(p *Program) {
	p.DeclareSet("edge", 2, 1)
	p.DeclareSet("path", 2, 1)
	p.Add(
		R(A("path", Var("x"), Var("y")), A("edge", Var("x"), Var("y"))),
		R(A("path", Var("x"), Var("z")), A("path", Var("x"), Var("y")), A("edge", Var("y"), Var("z"))),
	)
}

type tedge struct{ u, v, w uint64 }

func trandGraph(nodes, edges int, seed int64, maxW uint64) []tedge {
	rng := rand.New(rand.NewSource(seed))
	var out []tedge
	seen := map[[2]uint64]bool{}
	for len(out) < edges {
		u, v := uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes))
		if u == v || seen[[2]uint64{u, v}] {
			continue
		}
		seen[[2]uint64{u, v}] = true
		w := uint64(1)
		if maxW > 1 {
			w = uint64(rng.Intn(int(maxW))) + 1
		}
		out = append(out, tedge{u, v, w})
	}
	return out
}

func TestDeclarativeTransitiveClosure(t *testing.T) {
	es := trandGraph(40, 120, 5, 1)
	// Reference closure size by BFS.
	adj := map[uint64][]uint64{}
	for _, e := range es {
		adj[e.u] = append(adj[e.u], e.v)
	}
	want := 0
	for s := uint64(0); s < 40; s++ {
		vis := map[uint64]bool{}
		q := []uint64{s}
		for len(q) > 0 {
			u := q[0]
			q = q[1:]
			for _, v := range adj[u] {
				if !vis[v] {
					vis[v] = true
					want++
					q = append(q, v)
				}
			}
		}
	}
	run(t, 4, func(c *mpi.Comm) error {
		p := NewProgram()
		declTC(p)
		mc := metrics.NewCollector(4)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		in.Relation("edge").LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v})
		})
		stats := in.Run(cfg)
		if stats.TotalIters < 2 {
			return fmt.Errorf("suspiciously few iterations: %d", stats.TotalIters)
		}
		if got := in.Relation("path").GlobalFullCount(); got != uint64(want) {
			return fmt.Errorf("closure size %d, want %d", got, want)
		}
		return nil
	})
}

func TestDeclarativeSSSPWithArithmetic(t *testing.T) {
	es := trandGraph(60, 300, 11, 7)
	// Dijkstra reference from node 4.
	const src = 4
	const inf = ^uint64(0)
	dist := make([]uint64, 60)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	done := make([]bool, 60)
	for {
		u, best := -1, inf
		for i, d := range dist {
			if !done[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range es {
			if e.u == uint64(u) && dist[u]+e.w < dist[e.v] {
				dist[e.v] = dist[u] + e.w
			}
		}
	}
	reached := uint64(0)
	for _, d := range dist {
		if d != inf {
			reached++
		}
	}

	run(t, 3, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("edge", 3, 1)
		p.DeclareAgg("spath", 2, lattice.Min{})
		p.Add(R(
			A("spath", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
			A("spath", Var("f"), Var("m"), Var("l")),
			A("edge", Var("m"), Var("t"), Var("w")),
		))
		mc := metrics.NewCollector(3)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		in.Relation("edge").LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v, es[i].w})
		})
		seed := tuple.NewBuffer(3, 1)
		if c.Rank() == 0 {
			seed.Append(tuple.Tuple{src, src, 0})
		}
		in.Load("spath", seed)
		in.Run(cfg)

		sp := in.Relation("spath")
		var wrong, count uint64
		sp.EachAcc(func(tt tuple.Tuple) {
			count++
			if tt[0] != src || dist[tt[1]] != tt[2] {
				wrong++
			}
		})
		if g := c.Allreduce(wrong, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d wrong distances", g)
		}
		if g := c.Allreduce(count, mpi.OpSum); g != reached {
			return fmt.Errorf("reached %d, want %d", g, reached)
		}
		return nil
	})
}

func TestConstantsAndDuplicateVarsInBody(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("e", 2, 1)
		p.DeclareSet("self", 1, 1)  // nodes with a self-loop
		p.DeclareSet("from7", 1, 1) // successors of node 7
		p.Add(
			R(A("self", Var("x")), A("e", Var("x"), Var("x"))),
			R(A("from7", Var("y")), A("e", Const(7), Var("y"))),
		)
		mc := metrics.NewCollector(2)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		in.Relation("e").LoadShare(6, func(i int, emit func(tuple.Tuple)) {
			facts := [][2]uint64{{1, 1}, {2, 3}, {7, 9}, {7, 7}, {5, 5}, {7, 2}}
			emit(tuple.Tuple{facts[i][0], facts[i][1]})
		})
		in.Run(cfg)
		if got := in.Relation("self").GlobalFullCount(); got != 3 { // 1,7,5
			return fmt.Errorf("self count = %d, want 3", got)
		}
		if got := in.Relation("from7").GlobalFullCount(); got != 3 { // 9,7,2
			return fmt.Errorf("from7 count = %d, want 3", got)
		}
		return nil
	})
}

func TestConditionsFilter(t *testing.T) {
	run(t, 2, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("e", 2, 1)
		p.DeclareSet("up", 2, 1) // edges that go strictly upward
		p.Add(R(A("up", Var("x"), Var("y")), A("e", Var("x"), Var("y"))).Where(Lt(Var("x"), Var("y"))))
		mc := metrics.NewCollector(2)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		in.Relation("e").LoadShare(100, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{uint64(i % 10), uint64(i / 10)})
		})
		in.Run(cfg)
		// Pairs (i%10, i/10) for i in 0..99 with x < y: count them.
		want := uint64(0)
		for i := 0; i < 100; i++ {
			if uint64(i%10) < uint64(i/10) {
				want++
			}
		}
		if got := in.Relation("up").GlobalFullCount(); got != want {
			return fmt.Errorf("up count = %d, want %d", got, want)
		}
		return nil
	})
}

func TestThreeAtomBodyChaining(t *testing.T) {
	// Two-hop reachability through a middle node below a threshold:
	// hop2(x,z) <- e(x,y), e(y,z), e(z,w), with w as witness of outdegree.
	run(t, 3, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("e", 2, 1)
		p.DeclareSet("hop3", 2, 1)
		p.Add(R(
			A("hop3", Var("x"), Var("w")),
			A("e", Var("x"), Var("y")),
			A("e", Var("y"), Var("z")),
			A("e", Var("z"), Var("w")),
		))
		mc := metrics.NewCollector(3)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		// A ring of 10 nodes: hop3 from x reaches exactly x+3.
		in.Relation("e").LoadShare(10, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{uint64(i), uint64((i + 1) % 10)})
		})
		in.Run(cfg)
		h := in.Relation("hop3")
		if got := h.GlobalFullCount(); got != 10 {
			return fmt.Errorf("hop3 count = %d, want 10", got)
		}
		var wrong uint64
		h.Canonical().Full().Ascend(func(tt tuple.Tuple) bool {
			if tt[1] != (tt[0]+3)%10 {
				wrong++
			}
			return true
		})
		if g := c.Allreduce(wrong, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d wrong hop3 tuples", g)
		}
		return nil
	})
}

func TestTwoStratumLongestShortestPath(t *testing.T) {
	es := trandGraph(40, 200, 17, 5)
	run(t, 3, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("edge", 3, 1)
		p.DeclareAgg("spath", 2, lattice.Min{})
		p.DeclareAgg("lsp", 1, lattice.Max{})
		p.Add(
			R(A("spath", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
				A("spath", Var("f"), Var("m"), Var("l")),
				A("edge", Var("m"), Var("t"), Var("w"))),
			// Second stratum: aggregate the longest shortest path. Only
			// converged spath values flow in, so no transient "leak".
			R(A("lsp", Const(0), Var("l")), A("spath", Var("f"), Var("t"), Var("l"))),
		)
		mc := metrics.NewCollector(3)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		if in.Strata() != 2 {
			return fmt.Errorf("strata = %d, want 2", in.Strata())
		}
		in.Relation("edge").LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v, es[i].w})
		})
		seed := tuple.NewBuffer(3, 1)
		if c.Rank() == 0 {
			seed.Append(tuple.Tuple{0, 0, 0})
		}
		in.Load("spath", seed)
		in.Run(cfg)

		// Reference: Dijkstra from 0, take the max distance.
		const inf = ^uint64(0)
		dist := make([]uint64, 40)
		for i := range dist {
			dist[i] = inf
		}
		dist[0] = 0
		done := make([]bool, 40)
		for {
			u, best := -1, inf
			for i, d := range dist {
				if !done[i] && d < best {
					u, best = i, d
				}
			}
			if u < 0 {
				break
			}
			done[u] = true
			for _, e := range es {
				if e.u == uint64(u) && dist[u]+e.w < dist[e.v] {
					dist[e.v] = dist[u] + e.w
				}
			}
		}
		want := uint64(0)
		for _, d := range dist {
			if d != inf && d > want {
				want = d
			}
		}
		var local uint64
		in.Relation("lsp").EachAcc(func(tt tuple.Tuple) { local = tt[1] })
		if got := c.Allreduce(local, mpi.OpMax); got != want {
			return fmt.Errorf("lsp = %d, want %d", got, want)
		}
		return nil
	})
}

// TestPageRankMassConservation runs 10 undamped power iterations on a ring;
// the distribution must stay uniform, and total mass must stay 1.
func TestPageRankMassConservation(t *testing.T) {
	const n = 8
	const iters = 10
	run(t, 2, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("edgeInv", 3, 1) // (x, y, 1/outdeg(x) as float bits)
		p.DeclareAgg("pr", 2, lattice.MSum{})
		p.Add(R(
			A("pr", Add(Var("i"), Const(1)), Var("y"), FMul(Var("r"), Var("inv"))),
			A("pr", Var("i"), Var("x"), Var("r")),
			A("edgeInv", Var("x"), Var("y"), Var("inv")),
		).Where(Lt(Var("i"), Const(iters))))
		mc := metrics.NewCollector(2)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		// Ring: each node has outdegree 1.
		in.Relation("edgeInv").LoadShare(n, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{uint64(i), uint64((i + 1) % n), math.Float64bits(1.0)})
		})
		seed := tuple.NewBuffer(3, n)
		for i := c.Rank(); i < n; i += c.Size() {
			seed.Append(tuple.Tuple{0, uint64(i), math.Float64bits(1.0 / n)})
		}
		in.Load("pr", seed)
		in.Run(cfg)

		pr := in.Relation("pr")
		// Sum the final iteration's mass and check each entry is 1/n.
		var localBad uint64
		localMass := 0.0
		pr.EachAcc(func(tt tuple.Tuple) {
			if tt[0] != iters {
				return
			}
			v := math.Float64frombits(tt[2])
			if math.Abs(v-1.0/n) > 1e-12 {
				localBad++
			}
			localMass += v
		})
		if g := c.Allreduce(localBad, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d non-uniform entries at final iteration", g)
		}
		// Float bit patterns don't sum through an integer Allreduce; gather
		// per-rank masses and add as floats.
		masses := c.Allgather(math.Float64bits(localMass))
		total := 0.0
		for _, m := range masses {
			total += math.Float64frombits(m)
		}
		if math.Abs(total-1.0) > 1e-9 {
			return fmt.Errorf("mass = %v, want 1", total)
		}
		return nil
	})
}

func TestRuleString(t *testing.T) {
	r := R(A("h", Var("x"), Const(3), Add(Var("y"), Const(1))), A("b", Var("x"), Var("y"))).Where(Lt(Var("x"), Const(9)))
	s := r.String()
	if s == "" {
		t.Fatal("empty rule string")
	}
	for _, want := range []string{"h(", "b(", "x", "3", "add(...)", "lt(...)"} {
		if !contains(s, want) {
			t.Errorf("rule string %q missing %q", s, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
