package paralagg_test

// Base facts live in the program's own relations: a derived or aggregated
// relation keeps its base facts in a hidden base shadow that checkpoints
// carry like any other relation, so a snapshot restores what a later delete
// must re-derive from.

import (
	"context"
	"strings"
	"sync"
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

// spathSet gathers every spath tuple of a finished run.
func spathSet(t *testing.T, prog *paralagg.Program, cfg paralagg.Config, load func(*paralagg.Rank) error) map[[3]uint64]bool {
	t.Helper()
	var mu sync.Mutex
	set := map[[3]uint64]bool{}
	if _, err := paralagg.Exec(prog, cfg, load, func(rk *paralagg.Rank) error {
		return rk.Each("spath", func(tp paralagg.Tuple) {
			mu.Lock()
			set[[3]uint64{tp[0], tp[1], tp[2]}] = true
			mu.Unlock()
		})
	}); err != nil {
		t.Fatal(err)
	}
	return set
}

// TestSnapshotKeepsInsertedSeeds: a spath seed inserted through Apply is a
// base fact, so a snapshot must carry it. After a resume, a delete that
// invalidates the seed must re-derive from it, not lose the source.
func TestSnapshotKeepsInsertedSeeds(t *testing.T) {
	g := graph.Grid("seed-hole", 4, 4, 8, 7)
	var into5 graph.Edge
	for _, e := range g.Edges {
		if e.V == 5 {
			into5 = e
			break
		}
	}
	load := func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) }
	ctx := context.Background()
	sink := paralagg.NewMemoryCheckpointSink()

	eng, err := paralagg.Open(paralagg.Config{Ranks: 2}, queries.SSSPProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, paralagg.Mutation{Load: load}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, paralagg.Mutation{Insert: map[string][]paralagg.Tuple{"spath": {{5, 5, 0}}}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Snapshot(sink); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, err = paralagg.Open(paralagg.Config{Ranks: 2, Checkpoints: sink, Resume: true}, queries.SSSPProgram())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := eng.Apply(ctx, paralagg.Mutation{Load: load}); err != nil {
		t.Fatal(err)
	}
	st, err := eng.Apply(ctx, paralagg.Mutation{Delete: map[string][]paralagg.Tuple{
		"edge": {{into5.U, into5.V, into5.W}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if st.InvalidationRounds == 0 || st.Dropped == 0 {
		t.Fatalf("deleting %v invalidated nothing: %+v", into5, st)
	}

	cut := &graph.Graph{Name: "seed-hole-cut", Nodes: g.Nodes, MaxWeight: g.MaxWeight}
	for _, e := range g.Edges {
		if e != into5 {
			cut.Edges = append(cut.Edges, e)
		}
	}
	want := spathSet(t, queries.SSSPProgram(), paralagg.Config{Ranks: 2}, func(rk *paralagg.Rank) error {
		return queries.LoadSSSP(rk, cut, []uint64{0, 5})
	})
	got, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath"})
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, tp := range got.Tuples {
		if want[[3]uint64{tp[0], tp[1], tp[2]}] {
			matched++
		}
	}
	if matched != len(want) || len(got.Tuples) != len(want) {
		t.Errorf("after resume and delete: %d of %d engine spath tuples match the %d of a from-scratch run from sources {0,5}",
			matched, len(got.Tuples), len(want))
	}
}

// TestShadowlessCheckpointFailsResume pins the checkpoint layout: base
// shadows are sections appended after the program's relations. A checkpoint
// without them — the layout from before shadows existed — must fail Resume
// with the structured section error naming the first shadow, after every
// program relation has read its own section.
func TestShadowlessCheckpointFailsResume(t *testing.T) {
	g := graph.Grid("layout", 3, 3, 4, 9)
	load := func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) }
	ctx := context.Background()
	full := paralagg.NewMemoryCheckpointSink()
	eng, err := paralagg.Open(paralagg.Config{Ranks: 2}, queries.LspProgram())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Apply(ctx, paralagg.Mutation{Load: load}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Snapshot(full); err != nil {
		t.Fatal(err)
	}
	eng.Close()

	// edge, lsp, spath, spnorm, then the shadows of lsp, spath and spnorm.
	const programRels, shadows = 4, 3
	stripped := paralagg.NewMemoryCheckpointSink()
	for rank := 0; rank < 2; rank++ {
		cp, ok, err := full.Latest(rank)
		if err != nil || !ok {
			t.Fatalf("rank %d: no snapshot (%v)", rank, err)
		}
		if len(cp.SectionSums) != programRels+shadows {
			t.Fatalf("rank %d: snapshot has %d sections, want %d", rank, len(cp.SectionSums), programRels+shadows)
		}
		end := 0
		for i := 0; i < programRels; i++ {
			end += 1 + int(cp.Words[end])
		}
		cp.Words, cp.SectionSums = cp.Words[:end:end], cp.SectionSums[:programRels]
		if err := stripped.Save(rank, cp); err != nil {
			t.Fatal(err)
		}
	}

	eng, err = paralagg.Open(paralagg.Config{Ranks: 2, Checkpoints: stripped, Resume: true}, queries.LspProgram())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	_, err = eng.Apply(ctx, paralagg.Mutation{Load: load})
	if err == nil {
		t.Fatal("resumed a checkpoint without base shadows")
	}
	if msg := err.Error(); !strings.Contains(msg, "relation __base.lsp: payload ends before the section's length word") {
		t.Errorf("resume error = %v, want the section error naming __base.lsp", err)
	}
}

// TestInsertAndDeleteInOneBatchDeletes pins a batch's order: inserts reach
// the base facts before deletions, so a fact in both — a base-only edge or
// a shadowed spath seed — ends up deleted, on the incremental path and on
// the from-scratch fallback alike.
func TestInsertAndDeleteInOneBatchDeletes(t *testing.T) {
	g := chainGraph()
	load := func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, []uint64{0}) }
	for _, prog := range []func() *paralagg.Program{queries.SSSPProgram, queries.LspProgram} {
		want := spathSet(t, prog(), paralagg.Config{Ranks: 2}, load)
		eng, err := paralagg.Open(paralagg.Config{Ranks: 2}, prog())
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := eng.Apply(ctx, paralagg.Mutation{Load: load}); err != nil {
			t.Fatal(err)
		}
		both := map[string][]paralagg.Tuple{"edge": {{0, 3, 1}}, "spath": {{2, 2, 0}}}
		if _, err := eng.Apply(ctx, paralagg.Mutation{Insert: both, Delete: both}); err != nil {
			t.Fatal(err)
		}
		got, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath"})
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Tuples) != len(want) {
			t.Errorf("%d spath tuples after inserting and deleting the same facts, want the base graph's %d", len(got.Tuples), len(want))
		}
		for _, tp := range got.Tuples {
			if !want[[3]uint64{tp[0], tp[1], tp[2]}] {
				t.Errorf("spath%v survived a batch that inserted and deleted its support", tp)
			}
		}
	}
}
