package baseline

import (
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

func TestBaselineSSSPExactAnswers(t *testing.T) {
	g := graph.Uniform("t", 120, 700, 6, 3)
	sources := g.Sources(3, 9)
	_, wantPairs := queries.RefSSSPMulti(g, sources)
	for _, sys := range []System{RaSQLSim, SociaLiteSim} {
		res, err := RunSSSP(sys, g, sources, 4)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if err := res.Validate(uint64(wantPairs)); err != nil {
			t.Fatal(err)
		}
		if res.Iterations < 2 || res.SimSeconds <= 0 || res.CommBytes <= 0 {
			t.Fatalf("%v: degenerate result %+v", sys, res)
		}
	}
}

func TestBaselineCCExactAnswers(t *testing.T) {
	g := graph.Uniform("t", 200, 260, 1, 5)
	for _, sys := range []System{RaSQLSim, SociaLiteSim} {
		res, err := RunCC(sys, g, 4)
		if err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
		if err := res.Validate(uint64(g.Nodes)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLeakExceedsParalagg verifies the architectural claim: the leaky
// engines materialize strictly more tuples and move more bytes than
// PARALAGG on the same workload.
func TestLeakExceedsParalagg(t *testing.T) {
	g := graph.Uniform("t", 120, 700, 6, 3)
	sources := g.Sources(3, 9)
	_, wantPairs := queries.RefSSSPMulti(g, sources)

	pl, err := queries.RunSSSP(g, sources, paralagg.Config{Ranks: 4})
	if err != nil {
		t.Fatal(err)
	}
	if pl.Counts["spath"] != uint64(wantPairs) {
		t.Fatalf("paralagg wrong: %d pairs, want %d", pl.Counts["spath"], wantPairs)
	}
	bl, err := RunSSSP(RaSQLSim, g, sources, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bl.Materialized <= pl.Counts["spath"] {
		t.Fatalf("leaky engine materialized %d, expected more than paralagg's %d",
			bl.Materialized, pl.Counts["spath"])
	}
	if bl.CommBytes <= pl.CommBytes {
		t.Fatalf("leaky engine moved %d bytes, paralagg %d — expected more",
			bl.CommBytes, pl.CommBytes)
	}
}

// TestStageOverheadGrowsWithRanks captures Table I's flat scaling: the
// RaSQL-sim per-iteration overhead grows with the partition count.
func TestStageOverheadGrowsWithRanks(t *testing.T) {
	a := RaSQLSim.stageOverhead(32, 1000)
	b := RaSQLSim.stageOverhead(128, 1000)
	if b.Msgs <= a.Msgs {
		t.Fatalf("stage overhead did not grow: %d vs %d", a.Msgs, b.Msgs)
	}
	// SociaLite's overhead tracks derived tuples, not ranks.
	s1 := SociaLiteSim.stageOverhead(32, 32000)
	s2 := SociaLiteSim.stageOverhead(32, 64000)
	if s2.Msgs <= s1.Msgs {
		t.Fatalf("per-tuple overhead did not grow: %d vs %d", s1.Msgs, s2.Msgs)
	}
}

func TestSystemString(t *testing.T) {
	if RaSQLSim.String() != "rasql-sim" || SociaLiteSim.String() != "socialite-sim" {
		t.Fatal("system names")
	}
}

// TestLeakyCountsPinned pins how much the leaky engines materialize and how
// many iterations they take at 2 ranks. Both depend on each rank pruning its
// arrivals against its partial bests in arrival order, so a change to how a
// leaky relation merges a pass must leave them exactly as they are.
func TestLeakyCountsPinned(t *testing.T) {
	g := graph.Uniform("t", 120, 700, 6, 3)
	sources := g.Sources(3, 9)
	gc := graph.Uniform("t", 200, 260, 1, 5)
	for _, sys := range []System{RaSQLSim, SociaLiteSim} {
		s, err := RunSSSP(sys, g, sources, 2)
		if err != nil {
			t.Fatal(err)
		}
		if s.Materialized != 855 || s.Iterations != 8 {
			t.Errorf("%v SSSP: materialized %d in %d iterations, want 855 in 8", sys, s.Materialized, s.Iterations)
		}
		c, err := RunCC(sys, gc, 2)
		if err != nil {
			t.Fatal(err)
		}
		if c.Materialized != 1033 || c.Iterations != 11 {
			t.Errorf("%v CC: materialized %d in %d iterations, want 1033 in 11", sys, c.Materialized, c.Iterations)
		}
	}
}
