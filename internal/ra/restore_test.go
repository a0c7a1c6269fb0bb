package ra

// The restore route under hostile input: local failures must surface on
// every rank, and no checkpoint file — however malformed its payload — may
// panic the reader or make it allocate beyond what the file's size explains.

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
)

// rankSink is one rank's view of a shared sink with an injected fault: a
// scan that errors, or a load that finds the generation gone (pruned or
// quarantined between the agreement and the read).
type rankSink struct {
	CheckpointSink
	scanErr error
	vanish  bool
}

func (s rankSink) LatestValid() (Position, bool, error) {
	if s.scanErr != nil {
		return Position{}, false, s.scanErr
	}
	return s.CheckpointSink.LatestValid()
}

func (s rankSink) Load(rank int, pos Position) (Checkpoint, bool, error) {
	if s.vanish {
		return Checkpoint{}, false, nil
	}
	return s.CheckpointSink.Load(rank, pos)
}

// TestResumeLocalFailureSurfacesOnEveryRank pins the collective half of the
// restore: whatever goes wrong on ONE rank — its scan fails (the agreement
// is poisoned), its generation vanishes after the agreement, its payload is
// truncated — every rank returns an error instead of sailing into the next
// collective without its peers, and the failing rank's error says what broke.
func TestResumeLocalFailureSurfacesOnEveryRank(t *testing.T) {
	const ranks, bad = 3, 1
	for _, tc := range []struct {
		name   string
		fault  rankSink
		tamper func(*Sink)
		want   string // in the failing rank's error
	}{
		{name: "poisoned agreement", fault: rankSink{scanErr: errors.New("disk on fire")}, want: "disk on fire"},
		{name: "vanished generation", fault: rankSink{vanish: true}, want: "torn checkpoint set"},
		{name: "truncated payload", want: "relation edge", tamper: func(s *Sink) {
			// Cut the rank's newest payload short inside its last relation
			// and re-save it without a manifest: the envelope's CRC holds,
			// and no section digest vouches for what is missing.
			cp, _, _ := s.Latest(bad)
			cp.Words, cp.SectionSums = cp.Words[:len(cp.Words)-3], nil
			s.Save(bad, cp)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := NewMemorySink(0)
			w := mpi.NewWorld(ranks)
			if err := w.Run(func(c *mpi.Comm) error {
				fx, _ := chainTC(c, metrics.NewCollector(ranks))
				fx.Run(Options{Plan: PlanDynamic, CheckpointEvery: 2, Sink: sink, MaxIters: 3})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if tc.tamper != nil {
				tc.tamper(sink)
			}
			errs := make([]error, ranks)
			w2 := mpi.NewWorld(ranks)
			if err := w2.Run(func(c *mpi.Comm) error {
				fx, _ := chainTC(c, metrics.NewCollector(ranks))
				view := rankSink{CheckpointSink: sink}
				if c.Rank() == bad {
					view.scanErr, view.vanish = tc.fault.scanErr, tc.fault.vanish
				}
				_, errs[c.Rank()] = resumeLatest(fx, Options{Plan: PlanDynamic, Sink: view})
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for r, err := range errs {
				if err == nil {
					t.Errorf("rank %d resumed although rank %d could not", r, bad)
				}
			}
			if errs[bad] != nil && !strings.Contains(errs[bad].Error(), tc.want) {
				t.Errorf("failing rank's error %q does not mention %q", errs[bad], tc.want)
			}
		})
	}
}

// sectionSums digests a payload's length-prefixed sections into a manifest.
func sectionSums(t testing.TB, words []mpi.Word) []uint64 {
	var sums []uint64
	for len(words) > 0 {
		sec, rest, err := cutSection(words)
		if err != nil {
			t.Fatal(err)
		}
		sums, words = append(sums, ckptSum(sec)), rest
	}
	return sums
}

// FuzzRestoreCheckpointFiles feeds two checkpoint files — a 2-rank set, as
// the golden fixture is — through both sink backends and the one restore
// into the golden relation set on a 1-rank world. Each file is stored as its
// rank's only generation in a memory sink and in a directory sink and read
// back through the one decoder; the two must agree. Whatever the bytes: no
// panic, no allocation the input's size does not explain, and a restore
// that succeeds from files whose envelopes validated leaves relations that
// pass CheckInvariants.
//
// The envelope's CRC stops nearly every mutation before it reaches the
// snapshot reader, so an input that fails to validate is tried once more as
// the payload of an envelope sealed around the input's words without a
// manifest: any word sequence can sit in a valid one. Such a payload gets
// the structural guarantees only: no manifest vouches that a writer
// produced it.
func FuzzRestoreCheckpointFiles(f *testing.F) {
	var golden [goldenRanks][]byte
	var cps [goldenRanks]Checkpoint
	for r := range golden {
		path := filepath.Join(goldenDir, genName(r, 1))
		var err error
		if golden[r], err = os.ReadFile(path); err != nil {
			f.Fatal(err)
		}
		if cps[r], err = decodeCkpt(path, golden[r]); err != nil {
			f.Fatal(err)
		}
	}
	f.Add(golden[0], golden[1])
	marked := cps
	for r := range marked {
		marked[r].SendSeqs, marked[r].RecvSeqs = []uint64{3, 5}, []uint64{7, 11}
	}
	f.Add(encodeCkpt(marked[0]), encodeCkpt(marked[1]))

	// Counts and lengths the words cannot hold, inside envelopes that
	// validate. An empty shard of the golden set, each relation's section
	// behind its length word: subs, changed count, Δ count, index count,
	// two tree counts per index, the accumulator and leaky counts, then the
	// heavy set count and each set's slot count, one set per index and one
	// for the placement. g_sp has one index (its placement) and g_edge two,
	// both at two sub-buckets; g_leaky has one index and one sub-bucket.
	empty := func() []mpi.Word {
		return slices.Concat(
			[]mpi.Word{11, 2, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0},
			[]mpi.Word{14, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0},
			[]mpi.Word{11, 1, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0})
	}
	seal := func(words []mpi.Word) []byte {
		return encodeCkpt(Checkpoint{Ranks: goldenRanks, Iter: goldenIter, Words: words, SectionSums: sectionSums(f, words)})
	}
	f.Add(seal(empty()), seal(empty()))
	hugeLeaky := empty()
	hugeLeaky[12+10] = 1 << 61 // g_edge's leaky count
	f.Add(seal(hugeLeaky), seal(empty()))
	hugeAcc := empty()
	hugeAcc[7] = 1 << 36 // g_sp's accumulator count
	f.Add(seal(hugeAcc), seal(empty()))
	hugeDelta := empty()
	hugeDelta[12+3] = 1<<64 - 1 // g_edge's local Δ count, which no tree bounds
	f.Add(seal(hugeDelta), seal(hugeDelta))
	// The heavy sets: a slot count the words cannot hold, a set both shards
	// agree on, and one only one shard holds (a torn set).
	hugeSlots := empty()
	hugeSlots[12+12] = 1 << 62 // g_edge's canonical index's heavy slot count
	f.Add(seal(hugeSlots), seal(empty()))
	withHeavy := slices.Concat(empty()[:12], []mpi.Word{16, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 3, 2, 1, 7, 0, 0}, empty()[27:])
	f.Add(seal(withHeavy), seal(withHeavy))
	f.Add(seal(withHeavy), seal(empty()))
	hugeSection := cps[0]
	hugeSection.Words = append([]mpi.Word{1<<64 - 1}, hugeSection.Words[1:]...)
	hugeSection.SectionSums = nil
	f.Add(encodeCkpt(hugeSection), golden[1])
	// And counts the envelope itself cannot hold: marks and manifest
	// declared far past the file's end.
	hugeMarks, hugeManifest := slices.Clone(golden[0]), slices.Clone(golden[1])
	binary.LittleEndian.PutUint64(hugeMarks[8*6:], 1<<62)
	binary.LittleEndian.PutUint64(hugeManifest[8*5:], 1<<62)
	f.Add(hugeMarks, hugeManifest)

	sinks := []*Sink{NewMemorySink(1), newSink(unsyncedDir{dirStore(f.TempDir())}, 1)}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var shards []relation.Shard
		vouched := true
		for origin, data := range [][]byte{a, b} {
			cp, ok := readBack(t, origin, data, sinks)
			if !ok {
				vouched = false
				words := make([]mpi.Word, len(data)/8)
				for i := range words {
					words[i] = binary.LittleEndian.Uint64(data[8*i:])
				}
				if cp, ok = readBack(t, origin, encodeCkpt(Checkpoint{Words: words}), sinks); !ok {
					t.Fatal("an envelope sealed around the input's words does not validate")
				}
			}
			shards = append(shards, relation.Shard{Origin: origin, Words: cp.Words})
		}
		// A panic in a rank body comes back from Run as the world's error.
		if err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
			mc := metrics.NewCollector(1)
			rels := buildGoldenRels(t, c, mc)
			fx := NewFixpoint(c, mc)
			if _, err := fx.restore(Options{SnapshotRels: rels}, shards); err != nil || !vouched {
				return nil
			}
			for _, r := range rels {
				if err := r.CheckInvariants(); err != nil {
					t.Errorf("restore succeeded from validated files, yet: %v", err)
				}
			}
			return nil
		}); err != nil {
			t.Fatalf("restore took the world down: %v", err)
		}
		runtime.ReadMemStats(&after)
		// The world and the empty relation set cost a few KB; the golden pair
		// reads back through both sinks and restores in under 10 bytes
		// allocated per input byte.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*(len(a)+len(b))); grew > limit {
			t.Errorf("decode+restore of %d input bytes allocated %d bytes, limit %d", len(a)+len(b), grew, limit)
		}
	})
}

// unsyncedDir is the directory store without its fsyncs, which would bound
// the fuzz rate by the disk. Listing, reading and setting aside are the
// directory store's own.
type unsyncedDir struct{ dirStore }

func (d unsyncedDir) write(name string, data []byte) error {
	return os.WriteFile(d.path(name), data, 0o644)
}

// readBack stores data as rank's only generation in each sink and reads it
// back through the sink. The backends must agree on whether it validates and
// on the words it holds.
func readBack(t *testing.T, rank int, data []byte, sinks []*Sink) (cp Checkpoint, ok bool) {
	for i, s := range sinks {
		if err := s.st.write(genName(rank, 1), data); err != nil {
			t.Fatal(err)
		}
		got, gotOK, err := s.Latest(rank)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && (gotOK != ok || !slices.Equal(got.Words, cp.Words)) {
			t.Fatalf("backends disagree on rank %d's file: valid %v vs %v", rank, ok, gotOK)
		}
		cp, ok = got, gotOK
	}
	return cp, ok
}
