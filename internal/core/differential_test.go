package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/tuple"
)

// diffProgram is one differential-testing scenario: a program plus a fact
// generator.
type diffProgram struct {
	name  string
	build func() *Program
	facts func(rng *rand.Rand) map[string][]tuple.Tuple
}

// randEdges2 produces random binary facts.
func randEdges2(rng *rand.Rand, nodes, n int) []tuple.Tuple {
	seen := map[[2]uint64]bool{}
	var out []tuple.Tuple
	for len(out) < n {
		u, v := uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes))
		if seen[[2]uint64{u, v}] {
			continue
		}
		seen[[2]uint64{u, v}] = true
		out = append(out, tuple.Tuple{u, v})
	}
	return out
}

// randEdges3 produces random weighted facts.
func randEdges3(rng *rand.Rand, nodes, n int, maxW uint64) []tuple.Tuple {
	seen := map[[2]uint64]bool{}
	var out []tuple.Tuple
	for len(out) < n {
		u, v := uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes))
		if u == v || seen[[2]uint64{u, v}] {
			continue
		}
		seen[[2]uint64{u, v}] = true
		out = append(out, tuple.Tuple{u, v, uint64(rng.Intn(int(maxW))) + 1})
	}
	return out
}

var diffSuite = []diffProgram{
	{
		name: "transitive-closure",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("t", 2, 1)
			p.Add(
				R(A("t", Var("x"), Var("y")), A("e", Var("x"), Var("y"))),
				R(A("t", Var("x"), Var("z")), A("t", Var("x"), Var("y")), A("e", Var("y"), Var("z"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": randEdges2(rng, 14, 30)}
		},
	},
	{
		name: "same-generation",
		build: func() *Program {
			// sg(x,y) <- e(p,x), e(p,y); sg(x,y) <- e(a,x), sg(a,b), e(b,y).
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareSet("sg", 2, 1)
			p.Add(
				R(A("sg", Var("x"), Var("y")), A("e", Var("p"), Var("x")), A("e", Var("p"), Var("y"))),
				R(A("sg", Var("x"), Var("y")),
					A("e", Var("a"), Var("x")), A("sg", Var("a"), Var("b")), A("e", Var("b"), Var("y"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": randEdges2(rng, 10, 18)}
		},
	},
	{
		name: "sssp-min",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("sp", 2, lattice.Min{})
			p.Add(R(
				A("sp", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
				A("sp", Var("f"), Var("m"), Var("l")),
				A("e", Var("m"), Var("t"), Var("w")),
			))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{
				"e":  randEdges3(rng, 16, 50, 8),
				"sp": {{0, 0, 0}, {3, 3, 0}},
			}
		},
	},
	{
		name: "widest-path-max",
		build: func() *Program {
			// Bottleneck capacity: wp(f,t,MAX(min(c, w))) — widest path via
			// the Max aggregate and a min() head function.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("wp", 2, lattice.Max{})
			minFn := func(v []tuple.Value) tuple.Value {
				if v[0] < v[1] {
					return v[0]
				}
				return v[1]
			}
			p.Add(R(
				A("wp", Var("f"), Var("t"), Compute("min", minFn, Var("c"), Var("w"))),
				A("wp", Var("f"), Var("m"), Var("c")),
				A("e", Var("m"), Var("t"), Var("w")),
			))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{
				"e":  randEdges3(rng, 12, 40, 9),
				"wp": {{1, 1, 1 << 30}},
			}
		},
	},
	{
		name: "cc-with-conds",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("cc", 1, lattice.Min{})
			p.Add(
				R(A("cc", Var("y"), Var("z")), A("cc", Var("x"), Var("z")), A("e", Var("x"), Var("y"))),
				R(A("cc", Var("x"), Var("z")), A("cc", Var("y"), Var("z")), A("e", Var("x"), Var("y"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			seeds := make([]tuple.Tuple, 12)
			for i := range seeds {
				seeds[i] = tuple.Tuple{uint64(i), uint64(i)}
			}
			return map[string][]tuple.Tuple{
				"e":  randEdges2(rng, 12, 14),
				"cc": seeds,
			}
		},
	},
	{
		name: "bounded-hops-with-filter",
		build: func() *Program {
			// Paths of weight at most 12, as a set relation with a filter —
			// exercises conditions inside recursion.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareSet("ph", 3, 1)
			p.Add(
				R(A("ph", Var("x"), Var("y"), Var("w")), A("e", Var("x"), Var("y"), Var("w"))).
					Where(Le(Var("w"), Const(12))),
				R(A("ph", Var("x"), Var("z"), Add(Var("a"), Var("b"))),
					A("ph", Var("x"), Var("y"), Var("a")),
					A("e", Var("y"), Var("z"), Var("b"))).
					Where(Where("cap", func(v []tuple.Value) bool { return v[0]+v[1] <= 12 },
						Var("a"), Var("b"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": randEdges3(rng, 10, 25, 5)}
		},
	},
	{
		name: "mcount-degrees",
		build: func() *Program {
			// deg(x, MCOUNT(1)) over edges: non-idempotent aggregate fed by
			// a copy rule.
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("deg", 1, lattice.MCount{})
			p.Add(R(A("deg", Var("x"), Const(1)), A("e", Var("x"), Var("y"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": randEdges2(rng, 9, 30)}
		},
	},
	{
		name: "bitor-reachable-labels",
		build: func() *Program {
			// Each node accumulates the bitmask of source labels that reach
			// it: the power-set lattice in action.
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("lab", 1, lattice.BitOr{})
			p.Add(R(A("lab", Var("y"), Var("m")), A("lab", Var("x"), Var("m")), A("e", Var("x"), Var("y"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{
				"e":   randEdges2(rng, 12, 24),
				"lab": {{0, 1}, {1, 2}, {2, 4}},
			}
		},
	},
}

// TestDifferentialAgainstNaive runs every scenario with several seeds and
// engine configurations and compares the full relation contents against the
// naive evaluator.
func TestDifferentialAgainstNaive(t *testing.T) {
	configs := []Config{
		{Plan: ra.PlanDynamic},
		{Plan: ra.PlanStaticRight, Subs: 4},
		{Plan: ra.PlanAntiDynamic, Subs: 2},
		{Plan: ra.PlanDynamic, Subs: 8},
	}
	for _, sc := range diffSuite {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				facts := sc.facts(rand.New(rand.NewSource(seed)))
				want, err := EvalNaive(sc.build(), facts)
				if err != nil {
					t.Fatalf("seed %d: naive: %v", seed, err)
				}
				cfg := configs[int(seed)%len(configs)]
				ranks := []int{1, 3, 5}[int(seed)%3]
				got, _, err := runDistributed(sc.build(), facts, ranks, cfg)
				if err != nil {
					t.Fatalf("seed %d: distributed: %v", seed, err)
				}
				for rel, wt := range want {
					gt := got[rel]
					if len(gt) != len(wt) {
						t.Fatalf("seed %d cfg %+v: %s has %d tuples, naive %d",
							seed, cfg, rel, len(gt), len(wt))
					}
					for i := range wt {
						if !gt[i].Equal(wt[i]) {
							t.Fatalf("seed %d: %s[%d] = %v, naive %v", seed, rel, i, gt[i], wt[i])
						}
					}
				}
			}
		})
	}
}

// runDistributed executes the program on a world and gathers every
// relation's full contents to compare with the naive evaluator, plus the
// run's metrics report.
func runDistributed(p *Program, facts map[string][]tuple.Tuple, ranks int, cfg Config) (map[string][]tuple.Tuple, *metrics.Report, error) {
	out := map[string][]tuple.Tuple{}
	collect := make(chan struct {
		rel string
		t   tuple.Tuple
	}, 4096)
	w := mpi.NewWorld(ranks)
	mc := metrics.NewCollector(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		names := p.RelationNames()
		for _, name := range names {
			rel := in.Relation(name)
			ts := facts[name]
			buf := tuple.NewBuffer(rel.Arity, len(ts)/ranks+1)
			for i := c.Rank(); i < len(ts); i += ranks {
				buf.Append(ts[i])
			}
			if err := in.Load(name, buf); err != nil {
				return err
			}
		}
		in.Run(cfg)
		for _, name := range names {
			rel := in.Relation(name)
			if rel.Agg != nil {
				rel.EachAcc(func(t tuple.Tuple) {
					collect <- struct {
						rel string
						t   tuple.Tuple
					}{name, t.Clone()}
				})
				continue
			}
			rel.Canonical().Full().Ascend(func(t tuple.Tuple) bool {
				collect <- struct {
					rel string
					t   tuple.Tuple
				}{name, t.Clone()}
				return true
			})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	close(collect)
	for item := range collect {
		out[item.rel] = append(out[item.rel], item.t)
	}
	for rel := range out {
		ts := out[rel]
		sortTuples(ts)
		out[rel] = ts
	}
	// Relations that ended empty still need an entry for comparison.
	for _, name := range p.RelationNames() {
		if _, ok := out[name]; !ok {
			out[name] = nil
		}
	}
	return out, mc.BuildReport(metrics.DefaultCostModel), nil
}

// placementSuite holds the programs that pin where an aggregated relation
// lives: the SSSP and CC shapes, whose every join reads the aggregate on one
// key, so it is placed on that key and exchanges no replicas, and an
// aggregate joined on three keys, its canonical one included, which keeps
// its replica exchange.
var placementSuite = []struct {
	diffProgram
	agg        string
	replicated bool
}{
	{diffProgram{
		name: "sssp-two-rules-one-key",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareSet("h", 3, 1)
			p.DeclareAgg("sp", 2, lattice.Min{})
			p.Add(
				R(A("sp", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
					A("sp", Var("f"), Var("m"), Var("l")), A("e", Var("m"), Var("t"), Var("w"))),
				R(A("sp", Var("f"), Var("t"), Add(Var("l"), Add(Var("w"), Var("w")))),
					A("sp", Var("f"), Var("m"), Var("l")), A("h", Var("m"), Var("t"), Var("w"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{
				"e":  randEdges3(rng, 24, 60, 9),
				"h":  randEdges3(rng, 24, 20, 3),
				"sp": {{0, 0, 0}, {5, 5, 0}, {11, 11, 0}},
			}
		},
	}, "sp", false},
	{diffProgram{
		name: "cc-label-propagation",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("cc", 1, lattice.Min{})
			p.Add(R(A("cc", Var("y"), Var("z")), A("cc", Var("x"), Var("z")), A("e", Var("x"), Var("y"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			seeds := make([]tuple.Tuple, 20)
			for i := range seeds {
				seeds[i] = tuple.Tuple{uint64(i), uint64(i)}
			}
			return map[string][]tuple.Tuple{"e": randEdges2(rng, 20, 26), "cc": seeds}
		},
	}, "cc", false},
	{diffProgram{
		name: "sssp-two-keys",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareSet("c", 2, 2)
			p.DeclareSet("out", 3, 1)
			p.DeclareAgg("sp", 2, lattice.Min{})
			p.Add(
				R(A("sp", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
					A("sp", Var("f"), Var("m"), Var("l")), A("e", Var("m"), Var("t"), Var("w"))),
				R(A("sp", Var("g"), Var("t"), Add(Var("l"), Var("w"))),
					A("e", Var("g"), Var("f"), Var("w")), A("sp", Var("f"), Var("t"), Var("l"))),
				// Reads sp through its canonical index, on (f, t).
				R(A("out", Var("f"), Var("t"), Var("l")),
					A("sp", Var("f"), Var("t"), Var("l")), A("c", Var("f"), Var("t"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{
				"e":  randEdges3(rng, 14, 30, 7),
				"c":  randEdges2(rng, 14, 60),
				"sp": {{0, 0, 0}, {6, 6, 0}},
			}
		},
	}, "sp", true},
}

// hubSuite holds programs whose edge relation has one heavy join key: node
// 0 has an edge to each of 300 leaves, 100..399, beside a sparse random
// graph, so at Subs > 1 on several ranks edge's index on its source splits
// that key's bucket while every other key keeps one home. mcount-two-hops
// counts every (e(x, y), e(y, z)) pair, so a pair met twice or never under
// the partial replication of the heavy key shows.
var hubSuite = []diffProgram{
	{
		name:  "sssp-hub",
		build: diffProgramNamed("sssp-min").build,
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			e := randEdges3(rng, 16, 50, 8)
			for _, h := range hubEdges(300) {
				e = append(e, tuple.Tuple{h[0], h[1], uint64(rng.Intn(8)) + 1})
			}
			return map[string][]tuple.Tuple{"e": e, "sp": {{0, 0, 0}, {3, 3, 0}}}
		},
	},
	{
		name:  "transitive-closure-hub",
		build: diffProgramNamed("transitive-closure").build,
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": append(randEdges2(rng, 14, 30), hubEdges(300)...)}
		},
	},
	{
		name: "mcount-two-hops",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("hops", 1, lattice.MCount{})
			p.Add(R(A("hops", Var("x"), Const(1)), A("e", Var("x"), Var("y")), A("e", Var("y"), Var("z"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": append(randEdges2(rng, 14, 30), hubEdges(300)...)}
		},
	},
}

// hubEdges returns node 0's edges to n leaves, numbered from 100.
func hubEdges(n int) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = tuple.Tuple{0, uint64(100 + i)}
	}
	return out
}

// diffProgramNamed returns diffSuite's program of the given name.
func diffProgramNamed(name string) diffProgram {
	for _, d := range diffSuite {
		if d.name == name {
			return d
		}
	}
	panic("no diffSuite program " + name)
}

// TestCoPartitionedJoinsMatchNaive sweeps SSSP, CC and TC, and hubSuite,
// over ranks {1, 2, 3, 4} × Subs {1, 2, 8} × {Dynamic, StaticLeft,
// StaticRight}, and placementSuite over ranks {2, 3, 4} × Subs {1, 2, 3, 4}
// with the same plans: every configuration must equal the naive
// from-scratch evaluation. A join none of whose sides holds a heavy key is
// co-partitioned and runs without an intra-bucket message: at Subs 1, on
// one rank, and on every input without a hub. hubSuite's joins, at Subs > 1
// on several ranks, exchange — so the sweep covers both paths, and checks
// which one ran, and whether each placementSuite aggregate has replicas.
func TestCoPartitionedJoinsMatchNaive(t *testing.T) {
	type sweep struct {
		sc          diffProgram
		ranks, subs []int
		hub         bool
	}
	var sweeps []sweep
	for _, name := range []string{"sssp-min", "cc-with-conds", "transitive-closure"} {
		sweeps = append(sweeps, sweep{diffProgramNamed(name), []int{1, 2, 3, 4}, []int{1, 2, 8}, false})
	}
	for _, d := range hubSuite {
		sweeps = append(sweeps, sweep{d, []int{1, 2, 3, 4}, []int{1, 2, 8}, true})
	}
	for _, ps := range placementSuite {
		err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
			in, err := ps.build().Instantiate(c, metrics.NewCollector(1), Config{Subs: 2})
			if err == nil && in.Relation(ps.agg).Replicated() != ps.replicated {
				err = fmt.Errorf("%s replicated = %v, want %v", ps.agg, !ps.replicated, ps.replicated)
			}
			return err
		})
		if err != nil {
			t.Fatalf("%s: %v", ps.name, err)
		}
		sweeps = append(sweeps, sweep{ps.diffProgram, []int{2, 3, 4}, []int{1, 2, 3, 4}, false})
	}
	for _, sw := range sweeps {
		sc, name := sw.sc, sw.sc.name
		facts := sc.facts(rand.New(rand.NewSource(7)))
		want, err := EvalNaive(sc.build(), facts)
		if err != nil {
			t.Fatalf("%s: naive: %v", name, err)
		}
		for _, ranks := range sw.ranks {
			for _, subs := range sw.subs {
				for _, plan := range []ra.PlanMode{ra.PlanDynamic, ra.PlanStaticLeft, ra.PlanStaticRight} {
					got, rep, err := runDistributed(sc.build(), facts, ranks, Config{Subs: subs, Plan: plan})
					if err != nil {
						t.Fatalf("%s ranks=%d subs=%d plan=%d: %v", name, ranks, subs, plan, err)
					}
					for rel, wt := range want {
						if !sameTuples(got[rel], wt) {
							t.Fatalf("%s ranks=%d subs=%d plan=%d: %s = %v, naive %v",
								name, ranks, subs, plan, rel, got[rel], wt)
						}
					}
					local := ranks == 1 || subs == 1 || !sw.hub
					if msgs := rep.Phases[metrics.PhaseIntraBucket].Msgs; local != (msgs == 0) {
						t.Fatalf("%s ranks=%d subs=%d plan=%d: %d intra-bucket messages", name, ranks, subs, plan, msgs)
					}
				}
			}
		}
	}
}

func sameTuples(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

func sortTuples(ts []tuple.Tuple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
