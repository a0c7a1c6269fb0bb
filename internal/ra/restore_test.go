package ra

// The restore route under hostile input: local failures must surface on
// every rank, and no checkpoint file — however malformed its payload — may
// panic the reader or make it allocate beyond what the file's size explains.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
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
		tamper func(*MemoryCheckpointSink)
		want   string // in the failing rank's error
	}{
		{name: "poisoned agreement", fault: rankSink{scanErr: errors.New("disk on fire")}, want: "disk on fire"},
		{name: "vanished generation", fault: rankSink{vanish: true}, want: "torn checkpoint set"},
		{name: "truncated payload", want: "relation edge", tamper: func(s *MemoryCheckpointSink) {
			// Cut the rank's newest payload short inside its last relation
			// and re-save it, as a legacy file whose only checksum was
			// recomputed would deliver it: no manifest vouches for sections.
			cp, _, _ := s.Latest(bad)
			cp.Words, cp.SectionSums = cp.Words[:len(cp.Words)-3], nil
			s.Save(bad, cp)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := NewMemoryCheckpointSink()
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
// the golden fixture is — through decodeCkpt and the one restore into the
// golden relation set on a 1-rank world. Whatever the bytes: no panic, no
// allocation the input's size does not explain, and a restore that succeeds
// from files whose envelopes validated leaves relations that pass
// CheckInvariants.
//
// The envelope checksums stop nearly every mutation before it reaches the
// snapshot reader, so an input that fails to decode is tried once more as
// the payload of a legacy file — the format whose one checksum is not
// cryptographic and which carries no manifest, so any word sequence can sit
// in a valid one. Such a payload gets the structural guarantees only: no
// checksum vouches that a writer produced it.
func FuzzRestoreCheckpointFiles(f *testing.F) {
	var golden [goldenRanks][]byte
	var cps [goldenRanks]Checkpoint
	for r := range golden {
		path := filepath.Join(goldenDir, fmt.Sprintf("rank-%04d.ckpt", r))
		var err error
		if golden[r], err = os.ReadFile(path); err != nil {
			f.Fatal(err)
		}
		if cps[r], err = decodeCkpt(path, golden[r]); err != nil {
			f.Fatal(err)
		}
		cps[r].SectionSums = sectionSums(f, cps[r].Words)
	}
	f.Add(golden[0], golden[1]) // legacy envelopes
	f.Add(encodeCkpt(cps[0]), encodeCkpt(cps[1]))
	v3 := cps
	for r := range v3 {
		v3[r].SendSeqs, v3[r].RecvSeqs = []uint64{3, 5}, []uint64{7, 11}
	}
	f.Add(encodeCkpt(v3[0]), encodeCkpt(v3[1]))

	// Counts and lengths the words cannot hold, inside envelopes that
	// validate. An empty shard of the golden set: g_sp and g_edge have two
	// indexes and two sub-buckets, g_leaky one of each.
	empty := func() []mpi.Word {
		two := []mpi.Word{11, 2, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0}
		one := []mpi.Word{9, 1, 0, 0, 1, 0, 0, 0, 0, 0}
		return append(append(append([]mpi.Word(nil), two...), two...), one...)
	}
	seal := func(words []mpi.Word) []byte {
		return encodeCkpt(Checkpoint{Ranks: goldenRanks, Iter: goldenIter, Words: words, SectionSums: sectionSums(f, words)})
	}
	f.Add(seal(empty()), seal(empty()))
	hugeIDs := empty()
	hugeIDs[12+1+9] = 1 << 61 // g_edge's id count
	f.Add(seal(hugeIDs), seal(empty()))
	hugeAcc := empty()
	hugeAcc[1+8] = 1 << 36 // g_sp's accumulator count
	f.Add(seal(hugeAcc), seal(empty()))
	hugeSection := cps[0]
	hugeSection.Words = append([]mpi.Word{1<<64 - 1}, hugeSection.Words[1:]...)
	f.Add(legacyCkptBytes(hugeSection), golden[1])

	f.Fuzz(func(t *testing.T, a, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var shards []relation.Shard
		vouched := true
		for origin, data := range [][]byte{a, b} {
			cp, err := decodeCkpt("fuzz input", data)
			if err != nil {
				vouched = false
				words := make([]mpi.Word, len(data)/8)
				for i := range words {
					words[i] = binary.LittleEndian.Uint64(data[8*i:])
				}
				if cp, err = decodeCkpt("resealed fuzz input", legacyCkptBytes(Checkpoint{Words: words})); err != nil {
					t.Fatalf("a legacy file sealed around the input's words does not decode: %v", err)
				}
			}
			shards = append(shards, relation.Shard{Origin: origin, Words: cp.Words})
		}
		// A panic in a rank body comes back from Run as the world's error.
		if err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
			mc := metrics.NewCollector(1)
			rels := buildGoldenRels(t, c, mc)
			fx := &Fixpoint{Comm: c, MC: mc}
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
		// restores in under 5 bytes allocated per input byte.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*(len(a)+len(b))); grew > limit {
			t.Errorf("decode+restore of %d input bytes allocated %d bytes, limit %d", len(a)+len(b), grew, limit)
		}
	})
}
