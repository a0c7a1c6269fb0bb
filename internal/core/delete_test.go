package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// A deletion differential: random insert/delete histories applied to a
// converged instance with ApplyDelta must leave every declared relation
// bit-identical to EvalNaive over the base facts of that moment, after every
// batch. The programs cover every way a retraction can be bounded or not:
// selective lattices with strict and non-strict rules and ties (SSSP with
// zero weights, widest path, CC, LexMin2), a union lattice that must keep
// over-deleting (ReachLabels' $BOR), and a non-linear set rule whose
// re-derivation joins two surviving derived tuples. One program reads its
// base relation through a second index, on the destination column, and one
// reads its aggregated relation through a replica. One has a hub: its edge
// relation holds a heavy join key, split over sub-buckets at Subs > 1.

// historyProgram is one program of the deletion differential: its rules,
// its initial base facts and a generator of one fresh base fact to insert.
type historyProgram struct {
	name  string
	build func() *Program
	facts func(rng *rand.Rand) map[string][]tuple.Tuple
	fresh func(rng *rand.Rand) (string, tuple.Tuple)
}

// historyBatch is one ApplyDelta batch, whole (each rank takes its share).
type historyBatch struct {
	inserts, deletes map[string][]tuple.Tuple
}

// wedge returns a random weighted edge over nodes with weights in [0, maxW].
func wedge(rng *rand.Rand, nodes int, maxW uint64) tuple.Tuple {
	return tuple.Tuple{uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes)), uint64(rng.Intn(int(maxW) + 1))}
}

// wedges returns n random weighted edges (duplicates collapse as facts).
func wedges(rng *rand.Rand, nodes, n int, maxW uint64) []tuple.Tuple {
	out := make([]tuple.Tuple, n)
	for i := range out {
		out[i] = wedge(rng, nodes, maxW)
	}
	return out
}

var historySuite = []historyProgram{
	{
		name: "sssp-zero-weights",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("sp", 2, lattice.Min{})
			p.Add(R(A("sp", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
				A("sp", Var("f"), Var("m"), Var("l")), A("e", Var("m"), Var("t"), Var("w"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": wedges(rng, 12, 34, 3), "sp": {{0, 0, 0}, {4, 4, 0}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) {
			if rng.Intn(8) == 0 {
				s := uint64(rng.Intn(12))
				return "sp", tuple.Tuple{s, s, 0}
			}
			return "e", wedge(rng, 12, 3)
		},
	},
	{
		name: "widest-path",
		build: func() *Program {
			// wp(f,t, MAX(min(c, w))): the head value stops improving once the
			// edge is the bottleneck, so the rule is not strict.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("wp", 2, lattice.Max{})
			p.Add(R(A("wp", Var("f"), Var("t"), Compute("min", func(v []tuple.Value) tuple.Value {
				return min(v[0], v[1])
			}, Var("c"), Var("w"))), A("wp", Var("f"), Var("m"), Var("c")), A("e", Var("m"), Var("t"), Var("w"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": wedges(rng, 12, 30, 4), "wp": {{1, 1, 100}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) { return "e", wedge(rng, 12, 4) },
	},
	{
		name: "cc",
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
			seeds := make([]tuple.Tuple, 14)
			for i := range seeds {
				seeds[i] = tuple.Tuple{uint64(i), uint64(i)}
			}
			return map[string][]tuple.Tuple{"e": randEdges2(rng, 14, 16), "cc": seeds}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) {
			return "e", tuple.Tuple{uint64(rng.Intn(14)), uint64(rng.Intn(14))}
		},
	},
	{
		name: "lexmin2-dist-hops",
		build: func() *Program {
			// pt(f,t, LEXMIN2(d, h)): the distance and, among equally short
			// paths, the fewest hops. Neither column can improve along an
			// edge, so a delete keeps keys with strictly better support.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("pt", 2, lattice.LexMin2{})
			p.Add(R(A("pt", Var("f"), Var("t"), Add(Var("d"), Var("w")), Add(Var("h"), Const(1))),
				A("pt", Var("f"), Var("m"), Var("d"), Var("h")), A("e", Var("m"), Var("t"), Var("w"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": wedges(rng, 12, 34, 2), "pt": {{0, 0, 0, 0}, {5, 5, 0, 0}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) { return "e", wedge(rng, 12, 2) },
	},
	{
		name: "lexmin2-shortest-path-tree",
		build: func() *Program {
			// pt(f,t, LEXMIN2(d, m)): the distance and, among equally short
			// paths, the smallest predecessor. Over a zero-weight cycle the
			// predecessor column can improve on the value it was derived
			// from, so a delete must drop every key it reaches.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("pt", 2, lattice.LexMin2{})
			p.Add(R(A("pt", Var("f"), Var("t"), Add(Var("d"), Var("w")), Var("m")),
				A("pt", Var("f"), Var("m"), Var("d"), Var("p")), A("e", Var("m"), Var("t"), Var("w"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": wedges(rng, 12, 34, 2), "pt": {{0, 0, 0, 0}, {5, 5, 0, 5}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) { return "e", wedge(rng, 12, 2) },
	},
	{
		name: "reach-labels-bor",
		build: func() *Program {
			// ReachLabels: every node ORs in the label bits of the sources
			// reaching it. $BOR is not selective, so a delete drops every key
			// a retracted derivation reaches.
			p := NewProgram()
			p.DeclareSet("e", 2, 1)
			p.DeclareAgg("lab", 1, lattice.BitOr{})
			p.Add(R(A("lab", Var("y"), Var("m")), A("lab", Var("x"), Var("m")), A("e", Var("x"), Var("y"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": randEdges2(rng, 12, 22), "lab": {{0, 1}, {1, 2}, {2, 4}, {3, 1}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) {
			return "e", tuple.Tuple{uint64(rng.Intn(12)), uint64(rng.Intn(12))}
		},
	},
	{
		name: "tc-non-linear",
		build: func() *Program {
			p := NewProgram()
			p.DeclareSet("edge", 2, 1)
			p.DeclareSet("path", 2, 1)
			p.Add(
				R(A("path", Var("x"), Var("y")), A("edge", Var("x"), Var("y"))),
				R(A("path", Var("x"), Var("z")), A("path", Var("x"), Var("y")), A("path", Var("y"), Var("z"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"edge": randEdges2(rng, 10, 16)}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) {
			return "edge", tuple.Tuple{uint64(rng.Intn(10)), uint64(rng.Intn(10))}
		},
	},
	{
		name: "sssp-reverse-edge-index",
		build: func() *Program {
			// to(t,f, MIN(d+w)): the distance from f to t, grown backwards
			// through e's destination column, so the base relation e is read
			// through a second, frozen index (and a sub-bucketed one at Subs 4).
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("to", 2, lattice.Min{})
			p.Add(R(A("to", Var("t"), Var("f"), Add(Var("d"), Var("w"))),
				A("to", Var("t"), Var("m"), Var("d")), A("e", Var("f"), Var("m"), Var("w"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": wedges(rng, 12, 34, 3), "to": {{0, 0, 0}, {7, 7, 0}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) { return "e", wedge(rng, 12, 3) },
	},
	{
		name: "sssp-two-sided",
		build: func() *Program {
			// sp(f,t, MIN(d+w)) grown at both ends: forward through e's
			// source column and backward through its destination. sp is
			// joined on its source, keyed there so that index is its local
			// one, and on its destination, a replica kept in a B-tree.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.declare(&Decl{Name: "sp", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}})
			p.Add(
				R(A("sp", Var("f"), Var("t"), Add(Var("d"), Var("w"))),
					A("sp", Var("f"), Var("m"), Var("d")), A("e", Var("m"), Var("t"), Var("w"))),
				R(A("sp", Var("f"), Var("t"), Add(Var("d"), Var("w"))),
					A("e", Var("f"), Var("m"), Var("w")), A("sp", Var("m"), Var("t"), Var("d"))),
			)
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			return map[string][]tuple.Tuple{"e": wedges(rng, 12, 30, 3), "sp": {{0, 0, 0}, {6, 6, 0}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) { return "e", wedge(rng, 12, 3) },
	},
	{
		name: "sssp-hub",
		build: func() *Program {
			// SSSP where node 0 has an edge to each of 300 leaves: node 0 is
			// a heavy join key of e, so at Subs > 1 its edges live in
			// several sub-buckets, and most inserts and deletes land there.
			p := NewProgram()
			p.DeclareSet("e", 3, 1)
			p.DeclareAgg("sp", 2, lattice.Min{})
			p.Add(R(A("sp", Var("f"), Var("t"), Add(Var("l"), Var("w"))),
				A("sp", Var("f"), Var("m"), Var("l")), A("e", Var("m"), Var("t"), Var("w"))))
			return p
		},
		facts: func(rng *rand.Rand) map[string][]tuple.Tuple {
			e := wedges(rng, 12, 30, 3)
			for leaf := uint64(100); leaf < 400; leaf++ {
				e = append(e, tuple.Tuple{0, leaf, uint64(rng.Intn(4))})
			}
			return map[string][]tuple.Tuple{"e": e, "sp": {{0, 0, 0}}}
		},
		fresh: func(rng *rand.Rand) (string, tuple.Tuple) {
			if rng.Intn(2) == 0 {
				return "e", tuple.Tuple{0, uint64(100 + rng.Intn(400)), uint64(rng.Intn(4))}
			}
			return "e", wedge(rng, 12, 3)
		},
	},
}

// randomHistory draws n batches over the program's facts: each deletes one
// to four current base facts, inserts one to three fresh ones, or both.
// It returns the batches and the base facts after each of them.
func randomHistory(hp historyProgram, rng *rand.Rand, init map[string][]tuple.Tuple, n int) ([]historyBatch, []map[string][]tuple.Tuple) {
	cur := map[string][]tuple.Tuple{}
	for rel, ts := range init {
		for _, t := range ts {
			if !slices.ContainsFunc(cur[rel], t.Equal) {
				cur[rel] = append(cur[rel], t)
			}
		}
	}
	var batches []historyBatch
	var states []map[string][]tuple.Tuple
	for len(batches) < n {
		b := historyBatch{inserts: map[string][]tuple.Tuple{}, deletes: map[string][]tuple.Tuple{}}
		kind := rng.Intn(4) // 0, 1: delete only; 2: insert only; 3: both
		if kind != 2 {
			for k := 1 + rng.Intn(4); k > 0; k-- {
				rels := sortedKeys(cur)
				rel := rels[rng.Intn(len(rels))]
				if len(cur[rel]) == 0 {
					continue
				}
				i := rng.Intn(len(cur[rel]))
				b.deletes[rel] = append(b.deletes[rel], cur[rel][i])
				cur[rel] = slices.Delete(cur[rel], i, i+1)
			}
		}
		if kind >= 2 {
			for k := 1 + rng.Intn(3); k > 0; k-- {
				rel, t := hp.fresh(rng)
				if slices.ContainsFunc(cur[rel], t.Equal) || slices.ContainsFunc(b.deletes[rel], t.Equal) {
					continue
				}
				b.inserts[rel] = append(b.inserts[rel], t)
				cur[rel] = append(cur[rel], t)
			}
		}
		state := map[string][]tuple.Tuple{}
		for rel, ts := range cur {
			state[rel] = slices.Clone(ts)
		}
		batches = append(batches, b)
		states = append(states, state)
	}
	return batches, states
}

// share returns rank's share of ts (every ranks-th fact) as a buffer.
func share(ts []tuple.Tuple, arity, rank, ranks int) *tuple.Buffer {
	buf := tuple.NewBuffer(arity, len(ts)/ranks+1)
	for i := rank; i < len(ts); i += ranks {
		buf.Append(ts[i])
	}
	return buf
}

// runHistory loads init into a fresh instance on a world of the given size,
// converges it, applies every batch with ApplyDelta and returns every
// declared relation's sorted contents after each batch.
func runHistory(p *Program, init map[string][]tuple.Tuple, batches []historyBatch, ranks int, cfg Config) ([]map[string][]tuple.Tuple, error) {
	var mu sync.Mutex
	got := make([]map[string][]tuple.Tuple, len(batches))
	for i := range got {
		got[i] = map[string][]tuple.Tuple{}
	}
	err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
		in, err := p.Instantiate(c, metrics.NewCollector(ranks), cfg)
		if err != nil {
			return err
		}
		names := p.RelationNames()
		for _, name := range names {
			if err := in.Load(name, share(init[name], in.Relation(name).Arity, c.Rank(), ranks)); err != nil {
				return err
			}
		}
		in.Run(cfg)
		for b, batch := range batches {
			inp := ApplyInput{Inserts: map[string]*tuple.Buffer{}, Deletes: map[string]*tuple.Buffer{}}
			for rel, ts := range batch.inserts {
				inp.Inserts[rel] = share(ts, in.Relation(rel).Arity, c.Rank(), ranks)
			}
			for rel, ts := range batch.deletes {
				inp.Deletes[rel] = share(ts, in.Relation(rel).Arity, c.Rank(), ranks)
			}
			st, err := in.ApplyDelta(cfg, inp)
			if err != nil {
				return err
			}
			if !st.Incremental {
				return fmt.Errorf("batch %d was not maintained incrementally", b)
			}
			mu.Lock()
			for _, name := range names {
				rel := in.Relation(name)
				if rel.Agg != nil {
					rel.EachAcc(func(t tuple.Tuple) { got[b][name] = append(got[b][name], t.Clone()) })
					continue
				}
				rel.Canonical().Full().Ascend(func(t tuple.Tuple) bool {
					got[b][name] = append(got[b][name], t.Clone())
					return true
				})
			}
			mu.Unlock()
		}
		return nil
	})
	for _, m := range got {
		for _, ts := range m {
			sortTuples(ts)
		}
	}
	return got, err
}

// checkHistory runs one generated history of hp on the given world and
// fails t at the first batch whose state differs from EvalNaive's.
func checkHistory(t *testing.T, hp historyProgram, seed int64, ranks, subs, batches int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	init := hp.facts(rng)
	hist, states := randomHistory(hp, rng, init, batches)
	got, err := runHistory(hp.build(), init, hist, ranks, Config{Subs: subs})
	if err != nil {
		t.Fatalf("%s seed %d ranks=%d subs=%d: %v", hp.name, seed, ranks, subs, err)
	}
	for b, facts := range states {
		want, err := EvalNaive(hp.build(), facts)
		if err != nil {
			t.Fatalf("%s seed %d: naive: %v", hp.name, seed, err)
		}
		for rel, wt := range want {
			if !sameTuples(got[b][rel], wt) {
				t.Fatalf("%s seed %d ranks=%d subs=%d: after batch %d (insert %v, delete %v) %s =\n  %v\nnaive\n  %v",
					hp.name, seed, ranks, subs, b, hist[b].inserts, hist[b].deletes, rel, got[b][rel], wt)
			}
		}
	}
}

// TestDeletionHistoriesMatchNaive sweeps every program of historySuite over
// ranks 1–3 × Subs 1/4, three generated histories of eight batches each.
func TestDeletionHistoriesMatchNaive(t *testing.T) {
	for _, hp := range historySuite {
		t.Run(hp.name, func(t *testing.T) {
			for _, ranks := range []int{1, 2, 3} {
				for _, subs := range []int{1, 4} {
					for seed := int64(1); seed <= 3; seed++ {
						checkHistory(t, hp, seed*100+int64(ranks*10+subs), ranks, subs, 8)
					}
				}
			}
		})
	}
}

// FuzzDeletionHistories is the same differential over fuzzer-chosen
// programs, world sizes, sub-bucket counts and history seeds.
func FuzzDeletionHistories(f *testing.F) {
	for i := range historySuite {
		f.Add(uint8(i), uint8(2), true, int64(i))
	}
	f.Fuzz(func(t *testing.T, prog, ranks uint8, subBuckets bool, seed int64) {
		subs := 1
		if subBuckets {
			subs = 4
		}
		checkHistory(t, historySuite[int(prog)%len(historySuite)], seed, 1+int(ranks%3), subs, 6)
	})
}

// TestNonLinearTCDeleteKeepsAlternativePaths pins the re-derivation through
// two surviving derived tuples: with path = edge⁺ over 1→2→3→4 and
// 1→5→3, deleting 1→2 drops (1,2), (1,3) and (1,4), and only (1,5)⋈(5,3)
// and (1,5)⋈(5,4) — both sides derived, both surviving — bring the last
// two back. Re-seeding Δ from the edges alone leaves source 1 with (1,5).
func TestNonLinearTCDeleteKeepsAlternativePaths(t *testing.T) {
	hp := historySuite[slices.IndexFunc(historySuite, func(h historyProgram) bool { return h.name == "tc-non-linear" })]
	init := map[string][]tuple.Tuple{"edge": {{1, 2}, {2, 3}, {3, 4}, {1, 5}, {5, 3}}}
	del := historyBatch{deletes: map[string][]tuple.Tuple{"edge": {{1, 2}}}}
	want := []tuple.Tuple{{1, 3}, {1, 4}, {1, 5}, {2, 3}, {2, 4}, {3, 4}, {5, 3}, {5, 4}}
	for _, ranks := range []int{1, 2} {
		got, err := runHistory(hp.build(), init, []historyBatch{del}, ranks, Config{Subs: 1})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if !sameTuples(got[0]["path"], want) {
			t.Errorf("ranks=%d: path after deleting 1→2 = %v, want %v", ranks, got[0]["path"], want)
		}
	}
}

// TestBoundsRetraction pins which programs let a delete keep keys with
// strictly better support: those whose recursive rules cannot derive a
// value better than the one they read.
func TestBoundsRetraction(t *testing.T) {
	want := map[string]bool{
		"sssp-zero-weights":          true,
		"widest-path":                false, // min() is opaque to the compiler
		"cc":                         true,
		"lexmin2-dist-hops":          true,
		"lexmin2-shortest-path-tree": false,
		"reach-labels-bor":           false,
		"tc-non-linear":              false, // set relations have no value to bound by
		"sssp-reverse-edge-index":    true,
		"sssp-two-sided":             true,
		"sssp-hub":                   true,
	}
	for _, hp := range historySuite {
		p := hp.build()
		rules, _, err := rewriteRules(p.rules)
		if err != nil {
			t.Fatal(err)
		}
		heads := map[string]bool{}
		for _, r := range rules {
			heads[r.Head.Rel] = true
		}
		if got := boundsRetraction(rules, p.decls, heads); got != want[hp.name] {
			t.Errorf("%s: boundsRetraction = %v, want %v", hp.name, got, want[hp.name])
		}
	}
}

// TestDeletingADerivedFactIsANoOp deletes a tuple that is derived, not a
// base fact: nothing is invalidated (the re-run is one empty step), and
// deleting the base fact it rests on still drops it.
func TestDeletingADerivedFactIsANoOp(t *testing.T) {
	hp := historySuite[0] // sssp-zero-weights
	init := map[string][]tuple.Tuple{"e": {{0, 1, 2}, {1, 2, 3}}, "sp": {{0, 0, 0}}}
	for _, ranks := range []int{1, 2} {
		err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
			in, err := hp.build().Instantiate(c, metrics.NewCollector(ranks), Config{Subs: 1})
			if err != nil {
				return err
			}
			for _, name := range []string{"e", "sp"} {
				in.Load(name, share(init[name], in.Relation(name).Arity, c.Rank(), ranks))
			}
			in.Run(Config{})
			for _, tc := range []struct {
				del     tuple.Tuple
				dropped uint64
			}{{tuple.Tuple{0, 2, 5}, 0}, {tuple.Tuple{0, 0, 0}, 3}} {
				st, err := in.ApplyDelta(Config{}, ApplyInput{Deletes: map[string]*tuple.Buffer{
					"sp": share([]tuple.Tuple{tc.del}, 3, c.Rank(), ranks)}})
				if err != nil {
					return err
				}
				if st.Dropped != tc.dropped || (tc.dropped == 0 && st.InvalidationRounds != 0) {
					t.Errorf("ranks=%d: deleting %v dropped %d tuples in %d rounds; want %d dropped",
						ranks, tc.del, st.Dropped, st.InvalidationRounds, tc.dropped)
				}
			}
			if n := in.Relation("sp").GlobalFullCount(); n != 0 {
				t.Errorf("ranks=%d: %d sp tuples left after deleting the only source", ranks, n)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestTwoSidedSSSPHasAReplica pins that historySuite reaches the B-tree a
// deletion still uses: sssp-two-sided's sp is joined on two keys, so it is
// not placed on one, and Materialize runs its replica exchange.
func TestTwoSidedSSSPHasAReplica(t *testing.T) {
	hp := historySuite[slices.IndexFunc(historySuite, func(h historyProgram) bool { return h.name == "sssp-two-sided" })]
	err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
		in, err := hp.build().Instantiate(c, metrics.NewCollector(2), Config{Subs: 1})
		if err != nil {
			return err
		}
		if sp := in.Relation("sp"); len(sp.Indexes()) != 2 || !sp.Replicated() {
			return fmt.Errorf("sp has %d indexes, replicated %v: want a local index and a replica",
				len(sp.Indexes()), sp.Replicated())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
