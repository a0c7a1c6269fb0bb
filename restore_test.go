package paralagg_test

// The restore route seen from outside the packages that implement it: what
// it preserves, and what it reads (one scan of the sink per rank per resume).
//
// Restore as a property. Placement is a pure function of a tuple's key
// columns, the sub-bucket count and the world size, so a snapshot taken by
// any world restores into any other: into a world of the writing size from
// each rank's own shard alone, word for word; into a world of another size
// and back, with every tuple, accumulator value and tuple id intact. The
// programs are the chaos scenarios', stopped mid-fixpoint so Δ, improved
// accumulator values and allocated ids are all in the snapshot.

import (
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"paralagg"
	"paralagg/internal/chaos"
	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// snapshotSet is what one world's relations serialize to — words[rel][rank]
// — with each relation's global fingerprint.
type snapshotSet struct {
	ranks int
	words [][][]mpi.Word
	fps   []relPrint
}

// relPrint digests a relation's global contents order-independently: every
// registered index's FULL and Δ, the accumulator, the tuple count and the Δ
// count.
type relPrint struct {
	Full, Delta, Acc, Count, DeltaCount uint64
}

func hashWords(seed uint64, ws ...[]tuple.Value) uint64 {
	h := seed ^ 0x9e3779b97f4a7c15
	for _, w := range ws {
		for _, v := range w {
			h ^= v
			h *= 0xbf58476d1ce4e5b9
			h ^= h >> 29
		}
	}
	return h
}

func printOf(rk *paralagg.Rank, r *relation.Relation) relPrint {
	p := relPrint{Count: uint64(r.LocalFullCount()), DeltaCount: uint64(r.LocalDeltaCount())}
	for i, ix := range r.Indexes() {
		seed := []tuple.Value{tuple.Value(i)}
		ix.Full().Ascend(func(t tuple.Tuple) bool { p.Full += hashWords(2, seed, t); return true })
		ix.Delta().Ascend(func(t tuple.Tuple) bool { p.Delta += hashWords(3, seed, t); return true })
	}
	r.EachAcc(func(t tuple.Tuple) { p.Acc += hashWords(6, t) })
	for _, f := range []*uint64{&p.Full, &p.Delta, &p.Acc, &p.Count, &p.DeltaCount} {
		*f = rk.Reduce(*f, paralagg.OpSum)
	}
	return p
}

// world runs one world of the scenario's program. With from nil it loads
// the scenario's facts and stops three iterations into the fixpoint;
// otherwise its relations start empty and are restored from the given
// snapshots — each rank's own shard when the sizes match, the whole set
// otherwise, which is the choice a resume makes. Either way every relation
// must pass CheckInvariants, and the world's own snapshots come back.
func world(t *testing.T, sc chaos.Scenario, ranks int, from *snapshotSet) *snapshotSet {
	t.Helper()
	out := &snapshotSet{ranks: ranks}
	load := sc.Load
	if from != nil {
		load = nil
	}
	_, err := paralagg.Exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs, MaxIters: 3}, load,
		func(rk *paralagg.Rank) error {
			rels := paralagg.SnapshotRelations(rk)
			if rk.ID() == 0 {
				out.words = make([][][]mpi.Word, len(rels))
				out.fps = make([]relPrint, len(rels))
				for i := range out.words {
					out.words[i] = make([][]mpi.Word, ranks)
				}
			}
			rk.Reduce(0, paralagg.OpSum) // rank 0 sized the tables before anyone writes
			for i, r := range rels {
				if from != nil {
					var shards []relation.Shard
					for origin, words := range from.words[i] {
						if from.ranks != ranks || origin == rk.ID() {
							shards = append(shards, relation.Shard{Origin: origin, Words: words})
						}
					}
					if err := r.Restore(shards); err != nil {
						return err
					}
				}
				if err := r.CheckInvariants(); err != nil {
					return err
				}
				out.words[i][rk.ID()] = r.SnapshotWords()
				if fp := printOf(rk, r); rk.ID() == 0 {
					out.fps[i] = fp
				}
			}
			return nil
		})
	if err != nil {
		t.Fatalf("%s at %d ranks: %v", sc.Name, ranks, err)
	}
	return out
}

func TestRestoreRoundTrips(t *testing.T) {
	for _, sc := range chaos.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			saved := map[int]*snapshotSet{}
			for _, ranks := range []int{1, 2, 4} {
				saved[ranks] = world(t, sc, ranks, nil)
				delta := uint64(0)
				for _, fp := range saved[ranks].fps {
					delta += fp.Delta
				}
				if delta == 0 {
					t.Fatalf("%d ranks: no relation has a Δ three iterations in; the snapshot is not mid-fixpoint", ranks)
				}
				again := world(t, sc, ranks, saved[ranks])
				for i, perRank := range saved[ranks].words {
					for rank, want := range perRank {
						if got := again.words[i][rank]; !slices.Equal(got, want) {
							t.Errorf("%d ranks, relation %d, rank %d: restored from its own shard it re-serializes to %d words that differ from the snapshot's %d",
								ranks, i, rank, len(got), len(want))
						}
					}
				}
			}
			for _, hop := range [][2]int{{4, 3}, {2, 4}} {
				there := world(t, sc, hop[1], saved[hop[0]])
				back := world(t, sc, hop[0], there)
				for i, want := range saved[hop[0]].fps {
					if there.fps[i] != want || back.fps[i] != want {
						t.Errorf("%d→%d→%d, relation %d: fingerprints %+v → %+v → %+v", hop[0], hop[1], hop[0],
							i, want, there.fps[i], back.fps[i])
					}
				}
			}
		})
	}
}

// scanCountingSink counts the LatestValid scans a sink serves. A scan
// validates every rank's member of every candidate generation, so it is the
// expensive read of a recovery.
type scanCountingSink struct {
	paralagg.CheckpointSink
	scans atomic.Int64
}

func (s *scanCountingSink) LatestValid() (ra.Position, bool, error) {
	s.scans.Add(1)
	return s.CheckpointSink.LatestValid()
}

// TestResumeScansTheSinkOncePerRank pins one agreement per resume: a
// supervised recovery scans the sink once in the supervisor (is there a set
// to resume from, and how large was its world) and once on each rank of the
// recovered world (the position the ranks then agree on) — whether the
// world comes back at its old size or a rank short.
func TestResumeScansTheSinkOncePerRank(t *testing.T) {
	sc := chaos.Scenarios()[2] // transitive closure on a chain
	for _, tc := range []struct {
		name       string
		degrade    bool
		finalRanks int
	}{
		{"same-size", false, 4},
		{"elastic", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sink := &scanCountingSink{CheckpointSink: paralagg.NewMemoryCheckpointSink()}
			_, rep, err := paralagg.Supervise(sc.Prog(), paralagg.SuperviseConfig{
				Config: paralagg.Config{
					Ranks:           4,
					CheckpointEvery: 2,
					Checkpoints:     sink,
					Faults:          &paralagg.FaultPlan{Crashes: []paralagg.Crash{{Rank: 3, Iter: 5, Op: "alltoallv"}}},
				},
				Degrade:         tc.degrade,
				RecoveryBackoff: time.Millisecond,
			}, sc.Load, nil)
			if err != nil {
				t.Fatal(err)
			}
			if rep.RecoveryAttempts != 1 || rep.FinalRanks != tc.finalRanks {
				t.Fatalf("expected one recovery into %d ranks, report: %+v", tc.finalRanks, rep)
			}
			if got, want := sink.scans.Load(), int64(1+tc.finalRanks); got != want {
				t.Errorf("recovery ran %d LatestValid scans, want %d (the supervisor's and one per rank)", got, want)
			}
		})
	}
}
