package ra

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// chainTC builds the 50-node-chain transitive-closure fixpoint used by the
// truncation and checkpoint tests; full closure is 50·51/2 = 1275 paths.
func chainTC(c *mpi.Comm, mc *metrics.Collector) (*Fixpoint, *relation.Relation) {
	edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
	pathRel, _ := relation.New(relation.Schema{Name: "path", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
	pathRev, _ := pathRel.AddIndex([]int{1, 0}, 1)
	edgeRel.LoadShare(50, func(i int, emit func(tuple.Tuple)) {
		emit(tuple.Tuple{tuple.Value(i), tuple.Value(i + 1)})
	})
	fx := NewFixpoint(c, mc,
		&Copy{Src: edgeRel.Canonical(), SrcRel: edgeRel, Head: pathRel,
			Emit: func(s, _, out tuple.Tuple) bool { return copy(out, s) > 0 }},
		&Join{Left: pathRev, LeftRel: pathRel, Right: edgeRel.Canonical(), RightRel: edgeRel,
			Head: pathRel, JK: 1,
			Emit: func(l, r, out tuple.Tuple) bool { return copy(out, tuple.Tuple{l[1], r[1]}) > 0 }},
	)
	return fx, pathRel
}

const chainTCPaths = 50 * 51 / 2

// resumeLatest resumes fx the way core.Instance.Resume does: one collective
// agreement on the newest complete checkpoint set, then Fixpoint.Resume at
// the agreed position.
func resumeLatest(fx *Fixpoint, opts Options) (int, error) {
	if opts.Sink == nil {
		return fx.Resume(opts, Position{})
	}
	pos, ok, err := AgreedPosition(fx.Comm, opts.Sink)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, ErrNoCheckpoint
	}
	return fx.Resume(opts, pos)
}

// TestMaxItersTruncationThenContinue confirms a truncated Run leaves the
// relations in a state a second Run continues from, reaching the same
// fixpoint as an unbounded run.
func TestMaxItersTruncationThenContinue(t *testing.T) {
	const ranks = 2
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		fx, pathRel := chainTC(c, mc)
		n1 := fx.Run(Options{Plan: PlanDynamic, MaxIters: 3})
		if n1 != 3 {
			return fmt.Errorf("truncated run did %d iterations, want 3", n1)
		}
		partial := pathRel.GlobalFullCount()
		if partial == 0 || partial >= chainTCPaths {
			return fmt.Errorf("after 3 iterations closure has %d paths, expected a strict partial result", partial)
		}
		n2 := fx.Run(Options{Plan: PlanDynamic})
		if got := pathRel.GlobalFullCount(); got != chainTCPaths {
			return fmt.Errorf("continued run reached %d paths, want %d", got, chainTCPaths)
		}
		if n2 < 2 {
			return fmt.Errorf("continuation did only %d iterations from a 3-iteration truncation", n2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFixpointCheckpointResume drives the ra-level checkpoint machinery
// directly: a truncated checkpointing run, then Resume, must reach the same
// fixpoint an uninterrupted run reaches — even after the relations are
// dirtied past the snapshot.
func TestFixpointCheckpointResume(t *testing.T) {
	const ranks = 3
	sink := NewMemorySink(0)
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		fx, pathRel := chainTC(c, mc)
		opts := Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink}
		truncated := opts
		truncated.MaxIters = 5 // checkpoints at iterations 2 and 4
		fx.Run(truncated)
		dirty := pathRel.GlobalFullCount()

		total, err := resumeLatest(fx, opts)
		if err != nil {
			return err
		}
		if got := pathRel.GlobalFullCount(); got != chainTCPaths {
			return fmt.Errorf("resumed fixpoint reached %d paths, want %d (had %d at truncation)",
				got, chainTCPaths, dirty)
		}
		if total <= 5 {
			return fmt.Errorf("resumed run reported %d total iterations, expected to continue past the truncation", total)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: an uninterrupted run's iteration count must match the
	// resumed total.
	wantIters := 0
	w2 := mpi.NewWorld(ranks)
	if err := w2.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		fx, _ := chainTC(c, mc)
		n := fx.Run(Options{Plan: PlanDynamic})
		if c.Rank() == 0 {
			wantIters = n
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	// And resuming in a FRESH world (the crash/restart path: new goroutines,
	// reloaded base facts) must also reach the fixpoint.
	w3 := mpi.NewWorld(ranks)
	if err := w3.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		fx, pathRel := chainTC(c, mc)
		total, err := resumeLatest(fx, Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink})
		if err != nil {
			return err
		}
		if got := pathRel.GlobalFullCount(); got != chainTCPaths {
			return fmt.Errorf("fresh-world resume reached %d paths, want %d", got, chainTCPaths)
		}
		if total != wantIters {
			return fmt.Errorf("fresh-world resume ended at iteration %d, uninterrupted run at %d", total, wantIters)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// hubSSSP builds SSSP from node 0 at the given Subs over a star of 300
// leaves, which makes node 0 a heavy join key of edge, and a 20-edge chain
// off leaf 300 that keeps the fixpoint going past its checkpoints.
func hubSSSP(c *mpi.Comm, mc *metrics.Collector, subs int) (*Fixpoint, []*relation.Relation) {
	edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{Subs: subs})
	sp, _ := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, relation.Config{Subs: subs})
	spMid, _ := sp.AddIndex([]int{1, 0, 2}, 1)
	sp.PlaceOn(spMid)
	edgeRel.LoadShare(320, func(i int, emit func(tuple.Tuple)) {
		if i < 300 {
			emit(tuple.Tuple{0, tuple.Value(i + 1), tuple.Value(i%5 + 1)})
		} else {
			emit(tuple.Tuple{tuple.Value(i), tuple.Value(i + 1), 1})
		}
	})
	seed := tuple.NewBuffer(3, 1)
	if c.Rank() == 0 {
		seed.Append(tuple.Tuple{0, 0, 0})
	}
	sp.LoadFacts(seed)
	fx := NewFixpoint(c, mc, &Join{
		Left: spMid, LeftRel: sp, Right: edgeRel.Canonical(), RightRel: edgeRel, Head: sp, JK: 1,
		Emit: func(l, r, out tuple.Tuple) bool { return copy(out, tuple.Tuple{l[1], r[1], l[2] + r[2]}) > 0 },
	})
	return fx, []*relation.Relation{edgeRel, sp}
}

// rankDigests returns, for every rank, the order-independent digest of
// each relation's FULL tuples and Δ on that rank, index by index: two runs
// with equal digests hold the same tuples in the same places.
func rankDigests(c *mpi.Comm, rels []*relation.Relation) []uint64 {
	var out []uint64
	for _, r := range rels {
		for _, ix := range r.Indexes() {
			var full, delta uint64
			ix.Full().Ascend(func(t tuple.Tuple) bool { full += fpHash(t); return true })
			ix.Delta().Ascend(func(t tuple.Tuple) bool { delta += fpHash(t); return true })
			out = append(out, c.Allgather(full)...)
			out = append(out, c.Allgather(delta)...)
		}
	}
	return out
}

// TestElasticResumeAcrossWorldSizes is the heart of the elastic-recovery
// contract: a checkpoint taken by an N-rank world must restore into a world
// of M ≠ N ranks — shrunk or grown — re-hashing every tuple through the new
// layout, and still reach the identical fixpoint. On an input with a heavy
// key (hubSSSP at Subs 3) the resumed run must end with every tuple exactly
// where a from-scratch run at M ranks puts it.
func TestElasticResumeAcrossWorldSizes(t *testing.T) {
	const oldRanks = 3
	sink := NewMemorySink(0)
	w := mpi.NewWorld(oldRanks)
	if err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(oldRanks)
		fx, _ := chainTC(c, mc)
		fx.Run(Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink, MaxIters: 5})
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for _, newRanks := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("into-%d-ranks", newRanks), func(t *testing.T) {
			mc := metrics.NewCollector(newRanks)
			w2 := mpi.NewWorld(newRanks)
			if err := w2.Run(func(c *mpi.Comm) error {
				fx, pathRel := chainTC(c, mc)
				total, err := resumeLatest(fx, Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink})
				if err != nil {
					return err
				}
				if got := pathRel.GlobalFullCount(); got != chainTCPaths {
					return fmt.Errorf("remapped resume at %d ranks reached %d paths, want %d", newRanks, got, chainTCPaths)
				}
				if total <= 4 {
					return fmt.Errorf("remapped resume reported %d total iterations, expected to continue past the checkpoint", total)
				}
				// Every shard must live where the new layout places it: the
				// rank-local invariant checker would have caught misplaced
				// tuples during the fixpoint, but assert emptiness of the
				// foreign shards directly via per-rank counts.
				counts := pathRel.PerRankCounts()
				sum := 0
				for _, n := range counts {
					sum += n
				}
				if sum != chainTCPaths {
					return fmt.Errorf("per-rank counts %v sum to %d, want %d (duplicated or lost shards)", counts, sum, chainTCPaths)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if rep := mc.BuildReport(metrics.DefaultCostModel); rep.PhaseSeconds(metrics.PhaseRemap) <= 0 {
				t.Error("remapped resume metered no PhaseRemap time")
			}
		})
	}

	hubSink := NewMemorySink(0)
	if err := mpi.NewWorld(oldRanks).Run(func(c *mpi.Comm) error {
		fx, _ := hubSSSP(c, metrics.NewCollector(oldRanks), 3)
		fx.Run(Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: hubSink, MaxIters: 5})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, newRanks := range []int{1, 2, 5} {
		t.Run(fmt.Sprintf("hub-into-%d-ranks", newRanks), func(t *testing.T) {
			var scratch, resumed []uint64
			if err := mpi.NewWorld(newRanks).Run(func(c *mpi.Comm) error {
				fx, rels := hubSSSP(c, metrics.NewCollector(newRanks), 3)
				if edge := rels[0].Canonical(); newRanks > 1 && relation.CoPartitioned(edge, edge, 1) {
					return fmt.Errorf("node 0 is not a heavy key of edge")
				}
				fx.Run(Options{Plan: PlanDynamic})
				if d := rankDigests(c, rels); c.Rank() == 0 {
					scratch = d
				}
				fx, rels = hubSSSP(c, metrics.NewCollector(newRanks), 3)
				if _, err := resumeLatest(fx, Options{Plan: PlanDynamic, Sink: hubSink}); err != nil {
					return err
				}
				if d := rankDigests(c, rels); c.Rank() == 0 {
					resumed = d
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(scratch, resumed) {
				t.Fatalf("per-rank digests after the resume %v, from scratch %v", resumed, scratch)
			}
		})
	}
}

// TestAgreedPositionEmptyAndElastic pins AgreedPosition's contract: empty
// sink means ok=false everywhere; a populated sink reports the writing
// world's size even from a differently sized world.
func TestAgreedPositionEmptyAndElastic(t *testing.T) {
	sink := NewMemorySink(0)
	w := mpi.NewWorld(2)
	if err := w.Run(func(c *mpi.Comm) error {
		if _, ok, err := AgreedPosition(c, sink); err != nil || ok {
			return fmt.Errorf("empty sink: ok=%v err=%v, want false/nil", ok, err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	for r := 0; r < 3; r++ {
		if err := sink.Save(r, Checkpoint{Ranks: 3, Stratum: 1, Iter: 4, Words: []mpi.Word{uint64(r)}}); err != nil {
			t.Fatal(err)
		}
	}
	w2 := mpi.NewWorld(2)
	if err := w2.Run(func(c *mpi.Comm) error {
		pos, ok, err := AgreedPosition(c, sink)
		if err != nil || !ok {
			return fmt.Errorf("AgreedPosition: ok=%v err=%v", ok, err)
		}
		if pos != (Position{Ranks: 3, Stratum: 1, Iter: 4}) {
			return fmt.Errorf("pos = %+v, want {3 1 4}", pos)
		}
		shards, err := loadShards(sink, pos, []int{0, 1, 2})
		if err != nil {
			return err
		}
		for r, sh := range shards {
			if sh.Origin != r || len(sh.Words) != 1 || sh.Words[0] != uint64(r) {
				return fmt.Errorf("shard %d loaded as %+v", r, sh)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestLoadShardsRejectsTornSets pins the torn-set failure modes: a missing
// shard and a position mismatch must both error, whether the rank reads the
// whole set or only the shard that went missing.
func TestLoadShardsRejectsTornSets(t *testing.T) {
	pos := Position{Ranks: 3, Stratum: 0, Iter: 4}
	sink := NewMemorySink(0)
	sink.Save(0, Checkpoint{Ranks: 3, Iter: 4})
	sink.Save(1, Checkpoint{Ranks: 3, Iter: 4})
	for _, origins := range [][]int{{0, 1, 2}, {2}} {
		if _, err := loadShards(sink, pos, origins); err == nil {
			t.Errorf("origins %v: missing rank-2 checkpoint not rejected", origins)
		}
	}
	sink.Save(2, Checkpoint{Ranks: 3, Iter: 2}) // stale iteration
	for _, origins := range [][]int{{0, 1, 2}, {2}} {
		if _, err := loadShards(sink, pos, origins); err == nil {
			t.Errorf("origins %v: stale rank-2 checkpoint not rejected", origins)
		}
	}
	sink.Save(2, Checkpoint{Ranks: 3, Iter: 4})
	if _, err := loadShards(sink, pos, []int{0, 1, 2}); err != nil {
		t.Errorf("complete set rejected: %v", err)
	}
}

// TestCheckpointSinkConcurrentSaveLatest hammers both sink implementations
// from many goroutines under the race detector (make verify runs -race):
// concurrent Save and Latest on overlapping ranks must never tear — every
// observed checkpoint is one that some Save wrote in full.
func TestCheckpointSinkConcurrentSaveLatest(t *testing.T) {
	sinks := map[string]CheckpointSink{
		"memory": NewMemorySink(0),
		"file":   NewDirSink(t.TempDir(), 0),
	}
	for name, sink := range sinks {
		t.Run(name, func(t *testing.T) {
			const ranks, rounds = 4, 25
			var wg sync.WaitGroup
			for r := 0; r < ranks; r++ {
				wg.Add(2)
				go func(rank int) { // writer: monotone iterations
					defer wg.Done()
					for i := 1; i <= rounds; i++ {
						words := make([]mpi.Word, i)
						for j := range words {
							words[j] = uint64(i) // payload encodes the version
						}
						if err := sink.Save(rank, Checkpoint{Ranks: ranks, Iter: i, Words: words}); err != nil {
							t.Errorf("rank %d save %d: %v", rank, i, err)
							return
						}
					}
				}(r)
				go func(rank int) { // reader: every observation must be intact
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						cp, ok, err := sink.Latest(rank)
						if err != nil {
							t.Errorf("rank %d latest: %v", rank, err)
							return
						}
						if !ok {
							continue
						}
						if len(cp.Words) != cp.Iter {
							t.Errorf("rank %d: torn checkpoint: iter %d with %d words", rank, cp.Iter, len(cp.Words))
							return
						}
						for _, w := range cp.Words {
							if w != uint64(cp.Iter) {
								t.Errorf("rank %d: payload word %d in an iter-%d checkpoint", rank, w, cp.Iter)
								return
							}
						}
					}
				}(r)
			}
			wg.Wait()
		})
	}
}

// TestFileSinkTornWriteKeepsPreviousCheckpoint simulates a crash mid-save:
// after a good checkpoint, a truncated temporary file (the write died before
// the atomic rename) and junk overwriting a tmp path must both leave the
// previous checkpoint fully readable.
func TestFileSinkTornWriteKeepsPreviousCheckpoint(t *testing.T) {
	dir := t.TempDir()
	sink := NewDirSink(dir, 0)
	want := Checkpoint{Ranks: 2, Stratum: 1, Iter: 6, Words: []mpi.Word{7, 8, 9}}
	if err := sink.Save(0, want); err != nil {
		t.Fatal(err)
	}

	// A torn write: half of a newer checkpoint's bytes sitting in a tmp
	// file, never renamed into place.
	tmp := filepath.Join(dir, "rank-0000.gen-000002.ckpt.tmp")
	if err := os.WriteFile(tmp, []byte("partial checkpoint bytes that never finished"), 0o644); err != nil {
		t.Fatal(err)
	}
	cp, ok, err := sink.Latest(0)
	if err != nil || !ok {
		t.Fatalf("Latest after torn tmp write: ok=%v err=%v", ok, err)
	}
	if cp.Iter != want.Iter || len(cp.Words) != len(want.Words) || cp.Words[2] != 9 {
		t.Errorf("previous checkpoint damaged by torn write: %+v", cp)
	}

	// A subsequent complete Save must still go through over the junk tmp.
	want2 := Checkpoint{Ranks: 2, Stratum: 1, Iter: 8, Words: []mpi.Word{1}}
	if err := sink.Save(0, want2); err != nil {
		t.Fatal(err)
	}
	if cp, _, _ := sink.Latest(0); cp.Iter != 8 {
		t.Errorf("save after torn write produced iter %d, want 8", cp.Iter)
	}
}

// TestFileSinkCorruptNewestFallsBackOneGeneration is the degradation
// contract: bit rot in the newest generation quarantines it (renamed
// .bad, counted) and recovery proceeds from the previous generation;
// only when every generation is corrupt does the sink report nothing.
func TestFileSinkCorruptNewestFallsBackOneGeneration(t *testing.T) {
	dir := t.TempDir()
	sink := NewDirSink(dir, 0)
	if err := sink.Save(0, Checkpoint{Ranks: 1, Stratum: 1, Iter: 6, Words: []mpi.Word{7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Save(0, Checkpoint{Ranks: 1, Stratum: 1, Iter: 8, Words: []mpi.Word{1, 2}}); err != nil {
		t.Fatal(err)
	}
	failsBefore, quarBefore := CheckpointIntegrityStats()
	if !sink.TamperNewest(0) {
		t.Fatal("TamperNewest found nothing to corrupt")
	}

	cp, ok, err := sink.Latest(0)
	if err != nil || !ok {
		t.Fatalf("Latest after corrupting newest: ok=%v err=%v", ok, err)
	}
	if cp.Iter != 6 {
		t.Errorf("fallback loaded iter %d, want the previous generation's 6", cp.Iter)
	}
	fails, quar := CheckpointIntegrityStats()
	if fails-failsBefore < 1 || quar-quarBefore < 1 {
		t.Errorf("corruption not counted: validation failures +%d, quarantined +%d", fails-failsBefore, quar-quarBefore)
	}
	bads, _ := filepath.Glob(filepath.Join(dir, "*.bad"))
	if len(bads) != 1 {
		t.Errorf("quarantined files on disk: %v, want exactly one", bads)
	}
	// The quarantined generation is never retried: a second scan reads the
	// survivor without re-counting.
	fails2Before, _ := CheckpointIntegrityStats()
	if cp, ok, err := sink.Latest(0); err != nil || !ok || cp.Iter != 6 {
		t.Fatalf("second Latest after quarantine: iter=%d ok=%v err=%v", cp.Iter, ok, err)
	}
	if fails2, _ := CheckpointIntegrityStats(); fails2 != fails2Before {
		t.Errorf("quarantined generation was revalidated (%d new failures)", fails2-fails2Before)
	}

	// Corrupt the survivor too: nothing valid remains.
	if !sink.TamperNewest(0) {
		t.Fatal("second TamperNewest found nothing")
	}
	if _, ok, err := sink.Latest(0); err != nil || ok {
		t.Errorf("Latest with every generation corrupt: ok=%v err=%v, want false/nil", ok, err)
	}
}

// TestLatestValidRequiresCompleteSet pins the cross-rank half of the scan:
// a generation whose set is torn — any rank's member corrupt — is skipped
// in favor of the newest complete one, on both sink implementations.
func TestLatestValidRequiresCompleteSet(t *testing.T) {
	sinks := map[string]*Sink{
		"memory": NewMemorySink(0),
		"file":   NewDirSink(t.TempDir(), 0),
	}
	for name, sink := range sinks {
		t.Run(name, func(t *testing.T) {
			for _, iter := range []int{2, 4} {
				for r := 0; r < 2; r++ {
					if err := sink.Save(r, Checkpoint{Ranks: 2, Iter: iter, Words: []mpi.Word{uint64(10*iter + r)}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if pos, ok, err := sink.LatestValid(); err != nil || !ok || pos.Iter != 4 {
				t.Fatalf("clean LatestValid: %+v ok=%v err=%v", pos, ok, err)
			}
			if !sink.TamperNewest(1) {
				t.Fatal("TamperNewest(1) found nothing")
			}
			pos, ok, err := sink.LatestValid()
			if err != nil || !ok {
				t.Fatalf("LatestValid after tamper: ok=%v err=%v", ok, err)
			}
			if pos.Iter != 2 {
				t.Errorf("LatestValid settled on iter %d, want fallback to 2", pos.Iter)
			}
			if cp, ok, err := sink.Load(1, pos); err != nil || !ok || cp.Words[0] != 21 {
				t.Errorf("Load(1) at fallback: %+v ok=%v err=%v", cp, ok, err)
			}
		})
	}
}

// TestFileSinkKeepPrunesOldGenerations bounds the disk footprint: with
// Keep=2, four saves leave exactly the two newest generations.
func TestFileSinkKeepPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	sink := NewDirSink(dir, 2)
	for i := 1; i <= 4; i++ {
		if err := sink.Save(0, Checkpoint{Ranks: 1, Iter: 2 * i, Words: []mpi.Word{uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "rank-0000*.ckpt"))
	if len(files) != 2 {
		t.Errorf("after 4 saves with Keep=2, %d files remain: %v", len(files), files)
	}
	if cp, ok, err := sink.Latest(0); err != nil || !ok || cp.Iter != 8 {
		t.Errorf("Latest after pruning: iter=%d ok=%v err=%v, want 8", cp.Iter, ok, err)
	}
}

// TestSinkRefusesOtherEnvelopeVersions pins the one format: a file whose
// envelope carries another version word, or another magic, is not read as
// a checkpoint. It is set aside like any file that fails validation, and a
// current save beside it is the only generation the sink offers.
func TestSinkRefusesOtherEnvelopeVersions(t *testing.T) {
	dir := t.TempDir()
	sink := NewDirSink(dir, 0)
	cp := Checkpoint{Ranks: 1, Stratum: 2, Iter: 4, Words: []mpi.Word{11, 12}}
	older := encodeCkpt(cp)
	binary.LittleEndian.PutUint64(older[8:], ckptVersion-1)
	foreign := encodeCkpt(cp)
	binary.LittleEndian.PutUint64(foreign, ckptMagic-1)
	for gen, data := range map[int][]byte{1: older, 2: foreign} {
		if err := os.WriteFile(filepath.Join(dir, genName(0, gen)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := decodeCkpt("older", older); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("format version %d, this build reads %d", ckptVersion-1, ckptVersion)) {
		t.Errorf("older envelope: decode error %v, want the version named", err)
	}
	if _, ok, err := sink.Latest(0); err != nil || ok {
		t.Fatalf("Latest over files of other versions: ok=%v err=%v, want false/nil", ok, err)
	}
	if bads, _ := filepath.Glob(filepath.Join(dir, "*.bad")); len(bads) != 2 {
		t.Errorf("set-aside files: %v, want both", bads)
	}
	if err := sink.Save(0, Checkpoint{Ranks: 1, Stratum: 2, Iter: 6, Words: []mpi.Word{1}}); err != nil {
		t.Fatal(err)
	}
	if pos, ok, err := sink.LatestValid(); err != nil || !ok || pos.Iter != 6 {
		t.Errorf("LatestValid after a current save: %+v ok=%v err=%v, want iter 6", pos, ok, err)
	}
}

// TestEnvelopeSize pins what the one envelope costs: seven header words,
// two words per wire mark, one per manifest section, the payload behind its
// length word, and the CRC word. A mark-free checkpoint is one word (the
// mark count) longer than in the version 2 envelope, and a marked one is as
// long as in version 3.
func TestEnvelopeSize(t *testing.T) {
	words := []mpi.Word{1, 9}
	for _, tc := range []struct {
		cp    Checkpoint
		words int
	}{
		{Checkpoint{Ranks: 2, Iter: 3, Words: words, SectionSums: []uint64{ckptSum(words[1:])}}, 7 + 1 + 1 + 2 + 1},
		{Checkpoint{Ranks: 2, Iter: 3, Words: words, SendSeqs: []uint64{4, 5}, RecvSeqs: []uint64{6, 7}}, 7 + 4 + 1 + 2 + 1},
	} {
		data := encodeCkpt(tc.cp)
		if len(data) != 8*tc.words {
			t.Errorf("%+v encodes to %d bytes, want %d words", tc.cp, len(data), tc.words)
		}
		if _, err := decodeCkpt("size", data); err != nil {
			t.Error(err)
		}
	}
}

// TestResumeFallsBackPastCorruptGeneration drives the whole recovery
// degradation end to end: a checkpointing run leaves generations at
// iterations 2 and 4; corrupting every rank's newest generation must make
// a fresh world resume from iteration 2 — and still reach the identical
// fixpoint. With BOTH generations corrupt, Resume reports ErrNoCheckpoint
// (the restart-from-scratch signal).
func TestResumeFallsBackPastCorruptGeneration(t *testing.T) {
	const ranks = 2
	for name, sink := range map[string]*Sink{
		"memory": NewMemorySink(0),
		"file":   NewDirSink(t.TempDir(), 0),
	} {
		t.Run(name, func(t *testing.T) {
			w := mpi.NewWorld(ranks)
			if err := w.Run(func(c *mpi.Comm) error {
				mc := metrics.NewCollector(ranks)
				fx, _ := chainTC(c, mc)
				fx.Run(Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink, MaxIters: 5})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				if !sink.TamperNewest(r) {
					t.Fatalf("rank %d: nothing to tamper", r)
				}
			}
			w2 := mpi.NewWorld(ranks)
			if err := w2.Run(func(c *mpi.Comm) error {
				mc := metrics.NewCollector(ranks)
				fx, pathRel := chainTC(c, mc)
				total, err := resumeLatest(fx, Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink})
				if err != nil {
					return err
				}
				if got := pathRel.GlobalFullCount(); got != chainTCPaths {
					return fmt.Errorf("resume past corrupt generation reached %d paths, want %d", got, chainTCPaths)
				}
				if total <= 2 {
					return fmt.Errorf("resume reported %d total iterations, expected to continue from iteration 2", total)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeWithEveryGenerationCorruptReportsNoCheckpoint: when the sink
// holds a single generation and it is corrupt on every rank, recovery has
// nothing left and must say so explicitly — the restart-from-scratch
// signal the supervisor reports upward.
func TestResumeWithEveryGenerationCorruptReportsNoCheckpoint(t *testing.T) {
	const ranks = 2
	for name, sink := range map[string]*Sink{
		"memory": NewMemorySink(0),
		"file":   NewDirSink(t.TempDir(), 0),
	} {
		t.Run(name, func(t *testing.T) {
			w := mpi.NewWorld(ranks)
			if err := w.Run(func(c *mpi.Comm) error {
				mc := metrics.NewCollector(ranks)
				fx, _ := chainTC(c, mc)
				fx.Run(Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink, MaxIters: 3})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < ranks; r++ {
				if !sink.TamperNewest(r) {
					t.Fatalf("rank %d: nothing to tamper", r)
				}
			}
			w2 := mpi.NewWorld(ranks)
			if err := w2.Run(func(c *mpi.Comm) error {
				mc := metrics.NewCollector(ranks)
				fx, _ := chainTC(c, mc)
				if _, err := resumeLatest(fx, Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink}); err != ErrNoCheckpoint {
					return fmt.Errorf("Resume with every generation corrupt returned %v, want ErrNoCheckpoint", err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestResumeErrorsWithoutSinkOrCheckpoint pins the failure modes.
func TestResumeErrorsWithoutSinkOrCheckpoint(t *testing.T) {
	const ranks = 2
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		fx, _ := chainTC(c, mc)
		if _, err := resumeLatest(fx, Options{Plan: PlanDynamic}); err == nil {
			return fmt.Errorf("Resume without a sink did not error")
		}
		if _, err := resumeLatest(fx, Options{Plan: PlanDynamic, Sink: NewMemorySink(0)}); err != ErrNoCheckpoint {
			return fmt.Errorf("Resume from an empty sink returned %v, want ErrNoCheckpoint", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
