package ra

// Checkpoint snapshot-layout compatibility. The files under
// testdata/golden-2rank are one checkpoint set, envelope format version 7,
// written by TestGoldenCheckpointWrite. The tests here restore them through
// Fixpoint.Resume — into a world of the writing size and into a larger
// one — and require the restored relations to match a live twin loaded
// through the normal materialization path. Any change to the snapshot word
// layout breaks these tests, which is the point: a layout change must bump
// ckptVersion, or a file of the old layout would restore as garbage.
//
// To regenerate the fixture after an INTENTIONAL layout change (empty the
// directory first, and bump ckptVersion with it):
//
//	PARALAGG_WRITE_GOLDEN=1 go test ./internal/ra -run TestGoldenCheckpoint -v

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

const (
	goldenDir     = "testdata/golden-2rank"
	goldenRanks   = 2
	goldenStratum = 0
	goldenIter    = 2
)

// buildGoldenRels constructs the fixture's three relations — aggregated
// (placed on its join key), set, and leaky — identically on every rank.
func buildGoldenRels(t *testing.T, c *mpi.Comm, mc *metrics.Collector) []*relation.Relation {
	t.Helper()
	sp, err := relation.New(relation.Schema{Name: "g_sp", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}},
		c, mc, relation.Config{Subs: 2})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := sp.AddIndex([]int{1, 0, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp.PlaceOn(ix)
	edge, err := relation.New(relation.Schema{Name: "g_edge", Arity: 2, Indep: 2, Key: 1},
		c, mc, relation.Config{Subs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edge.AddIndex([]int{1, 0}, 1); err != nil {
		t.Fatal(err)
	}
	leaky, err := relation.New(relation.Schema{Name: "g_leaky", Arity: 3, Indep: 3, Key: 2},
		c, mc, relation.Config{Leaky: &relation.LeakySpec{Agg: lattice.Min{}, Indep: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return []*relation.Relation{sp, edge, leaky}
}

// loadGoldenRels drives two materialization rounds so the snapshot captures
// a mid-fixpoint state: non-empty Δ, improved accumulator values and
// stale-free secondary indexes. g_edge's first round is a bulk load in which
// key 0 is heavy, so its canonical index splits that key's bucket.
func loadGoldenRels(c *mpi.Comm, rels []*relation.Relation) {
	sp, edge, leaky := rels[0], rels[1], rels[2]
	rank, size := c.Rank(), c.Size()

	buf := tuple.NewBuffer(3, 64)
	for i := rank; i < 120; i += size {
		buf.Append(tuple.Tuple{tuple.Value(i % 11), tuple.Value(i % 7), tuple.Value(200 - i)})
	}
	sp.Materialize(0, buf, false)
	buf.Reset()
	for i := rank; i < 120; i += size {
		if i%3 == 0 { // improvements for a third of the keys
			buf.Append(tuple.Tuple{tuple.Value(i % 11), tuple.Value(i % 7), tuple.Value(40 + i%5)})
		}
	}
	sp.Materialize(1, buf, false)

	ebuf := tuple.NewBuffer(2, 64)
	for i := rank; i < 90; i += size {
		ebuf.Append(tuple.Tuple{tuple.Value(i % 13), tuple.Value(i)})
	}
	for i := rank; i < 300; i += size {
		ebuf.Append(tuple.Tuple{0, tuple.Value(500 + i)})
	}
	edge.LoadFacts(ebuf)
	ebuf.Reset()
	for i := rank; i < 30; i += size {
		ebuf.Append(tuple.Tuple{tuple.Value(i % 13), tuple.Value(1000 + i)})
	}
	edge.Materialize(1, ebuf, false)

	lbuf := tuple.NewBuffer(3, 64)
	for i := rank; i < 60; i += size {
		lbuf.Append(tuple.Tuple{tuple.Value(i % 5), tuple.Value(i % 3), tuple.Value(100 - i)})
	}
	leaky.Materialize(0, lbuf, false)
	lbuf.Reset()
	for i := rank; i < 60; i += size {
		lbuf.Append(tuple.Tuple{tuple.Value(i % 5), tuple.Value(i % 3), tuple.Value(80 - i)})
	}
	leaky.Materialize(1, lbuf, false)
}

// relFingerprint digests one relation's global contents order-independently:
// every registered index's FULL and Δ, the accumulator view, the tuple count
// and the Δ count.
type relFingerprint struct {
	Full, Delta, Acc  uint64
	Count, DeltaCount uint64
}

func fpHash(t tuple.Tuple) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range t {
		h ^= v
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 29
	}
	return h
}

func fingerprint(c *mpi.Comm, r *relation.Relation) relFingerprint {
	var fp relFingerprint
	for _, ix := range r.Indexes() {
		ix.Full().Ascend(func(t tuple.Tuple) bool { fp.Full += fpHash(t); return true })
		ix.Delta().Ascend(func(t tuple.Tuple) bool { fp.Delta += fpHash(t); return true })
	}
	r.EachAcc(func(t tuple.Tuple) { fp.Acc += fpHash(t) })
	return relFingerprint{
		Full:       c.Allreduce(fp.Full, mpi.OpSum),
		Delta:      c.Allreduce(fp.Delta, mpi.OpSum),
		Acc:        c.Allreduce(fp.Acc, mpi.OpSum),
		Count:      r.GlobalFullCount(),
		DeltaCount: c.Allreduce(uint64(r.LocalDeltaCount()), mpi.OpSum),
	}
}

// TestGoldenCheckpointWrite regenerates the fixture; it is a no-op unless
// PARALAGG_WRITE_GOLDEN=1 is set (see the file comment for when that is
// legitimate).
func TestGoldenCheckpointWrite(t *testing.T) {
	if os.Getenv("PARALAGG_WRITE_GOLDEN") != "1" {
		t.Skip("set PARALAGG_WRITE_GOLDEN=1 to regenerate the golden checkpoint")
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		t.Fatal(err)
	}
	sink := NewDirSink(goldenDir, 1)
	w := mpi.NewWorld(goldenRanks)
	mc := metrics.NewCollector(goldenRanks)
	err := w.Run(func(c *mpi.Comm) error {
		rels := buildGoldenRels(t, c, mc)
		loadGoldenRels(c, rels)
		f := NewFixpoint(c, mc)
		f.checkpoint(Options{Sink: sink, Stratum: goldenStratum, SnapshotRels: rels}, goldenIter)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < goldenRanks; rk++ {
		// The tests read each rank's first generation.
		if _, err := os.Stat(filepath.Join(goldenDir, genName(rk, 1))); err != nil {
			t.Fatalf("golden file for rank %d: %v (was the directory emptied first?)", rk, err)
		}
	}
}

// resumeGolden restores the untouched fixture into a world of the given size
// the way a resume does — one agreement, then Fixpoint.Resume at the agreed
// position, which with no rules to run ends after one empty iteration —
// checks every restored relation's invariants, hands each rank's restored
// set to check, and returns the relations' global fingerprints.
func resumeGolden(t *testing.T, ranks int, check func(c *mpi.Comm, pos Position, restored []*relation.Relation) error) []relFingerprint {
	t.Helper()
	sink := NewDirSink(goldenDir, 0)
	w := mpi.NewWorld(ranks)
	mc := metrics.NewCollector(ranks)
	fps := make([]relFingerprint, 3)
	err := w.Run(func(c *mpi.Comm) error {
		restored := buildGoldenRels(t, c, mc)
		f := NewFixpoint(c, mc)
		pos, ok, err := AgreedPosition(c, sink)
		if err != nil {
			return err
		}
		if !ok {
			t.Fatal("golden checkpoint missing")
		}
		if want := (Position{Ranks: goldenRanks, Stratum: goldenStratum, Iter: goldenIter}); pos != want {
			t.Fatalf("golden position = %+v, want %+v", pos, want)
		}
		iters, err := f.Resume(Options{Sink: sink, Stratum: goldenStratum, SnapshotRels: restored}, pos)
		if err != nil {
			return err
		}
		if iters != goldenIter+1 {
			t.Errorf("resume ended at iteration %d, want %d", iters, goldenIter+1)
		}
		for i, r := range restored {
			if err := r.CheckInvariants(); err != nil {
				t.Errorf("relation %s after golden restore at %d ranks: %v", r.Name, ranks, err)
			}
			if fp := fingerprint(c, r); c.Rank() == 0 {
				fps[i] = fp
			}
		}
		return check(c, pos, restored)
	})
	if err != nil {
		t.Fatal(err)
	}
	return fps
}

// matchLiveTwin requires each restored relation to fingerprint like a twin
// loaded at this world size through the normal materialization path.
func matchLiveTwin(t *testing.T, c *mpi.Comm, restored []*relation.Relation) {
	live := buildGoldenRels(t, c, metrics.NewCollector(c.Size()))
	loadGoldenRels(c, live)
	for i, r := range restored {
		if got, want := fingerprint(c, r), fingerprint(c, live[i]); got != want {
			t.Errorf("relation %s: restored fingerprint %+v, live %+v", r.Name, got, want)
		}
	}
}

// TestGoldenCheckpointSameSizeRestore restores the fixture on a
// world of the size that wrote it. Each rank reads only its own file and
// must keep every word of it: the restored set re-serializes to the file's
// payload exactly, and matches a live twin.
func TestGoldenCheckpointSameSizeRestore(t *testing.T) {
	resumeGolden(t, goldenRanks, func(c *mpi.Comm, pos Position, restored []*relation.Relation) error {
		cp, ok, err := NewDirSink(goldenDir, 0).Load(c.Rank(), pos)
		if err != nil || !ok {
			return fmt.Errorf("rank %d: golden file unreadable: ok=%v err=%v", c.Rank(), ok, err)
		}
		var again []mpi.Word
		for _, r := range restored {
			sub := r.SnapshotWords()
			again = append(again, mpi.Word(len(sub)))
			again = append(again, sub...)
		}
		if !slices.Equal(again, cp.Words) {
			t.Errorf("rank %d: restored set re-serializes to %d words that differ from the file's %d", c.Rank(), len(again), len(cp.Words))
		}
		if edge := restored[1].Canonical(); relation.CoPartitioned(edge, edge, 1) {
			t.Errorf("rank %d: g_edge restored without its heavy key", c.Rank())
		}
		matchLiveTwin(t, c, restored)
		return nil
	})
}

// TestGoldenCheckpointElasticRestore remaps the 2-rank fixture into a 3-rank
// world: every tuple re-hashes through the new layout, and every relation
// must come back with exactly the snapshot union — the remap may not lose or
// duplicate a single tuple. The union is what the same-size restore holds,
// which the test above shows to be the files' words, all of them.
func TestGoldenCheckpointElasticRestore(t *testing.T) {
	none := func(*mpi.Comm, Position, []*relation.Relation) error { return nil }
	union := resumeGolden(t, goldenRanks, none)
	got := resumeGolden(t, 3, func(c *mpi.Comm, _ Position, restored []*relation.Relation) error {
		// The placement-canonical relations (not leaky: its per-rank pruning
		// caches are world-size dependent by design) must also match a live
		// twin loaded directly at the new size.
		matchLiveTwin(t, c, restored[:2])
		return nil
	})
	for i, fp := range got {
		if fp != union[i] {
			t.Errorf("relation %d: remapped fingerprint %+v, snapshot union %+v", i, fp, union[i])
		}
	}
}
