package relation

import (
	"fmt"
	"strings"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// dumpFull collects a rank's stored contents for comparison: every
// registered index's FULL tuples, then the accumulator's entries.
func dumpFull(r *Relation) []tuple.Tuple {
	var out []tuple.Tuple
	for _, ix := range r.Indexes() {
		ix.Full().Ascend(func(t tuple.Tuple) bool {
			out = append(out, t.Clone())
			return true
		})
	}
	r.EachAcc(func(t tuple.Tuple) { out = append(out, t.Clone()) })
	return out
}

func sameTuples(a, b []tuple.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// ownShard wraps a rank's own snapshot as the one-shard set a restore on a
// world of the writing size reads.
func ownShard(c *mpi.Comm, words []mpi.Word) []Shard {
	return []Shard{{Origin: c.Rank(), Words: words}}
}

// sameWords reports whether a restored relation re-serializes to exactly
// the snapshot it was restored from.
func sameWords(r *Relation, snap []mpi.Word) error {
	got := r.SnapshotWords()
	if len(got) != len(snap) {
		return fmt.Errorf("relation %s re-serializes to %d words, snapshot had %d", r.Name, len(got), len(snap))
	}
	for i := range got {
		if got[i] != snap[i] {
			return fmt.Errorf("relation %s re-serializes differently at word %d: %d, snapshot had %d", r.Name, i, got[i], snap[i])
		}
	}
	return nil
}

func TestSnapshotRestoreSetRelation(t *testing.T) {
	const ranks = 3
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(setSchema("edge", 2, 1), c, mc, Config{Subs: 2})
		if err != nil {
			return err
		}
		if _, err := r.AddIndex([]int{1, 0}, 1); err != nil {
			return err
		}
		r.LoadShare(300, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{tuple.Value(i % 11), tuple.Value(i)})
		})
		want := dumpFull(r)
		wantChanged := r.ChangedLast()
		snap := r.SnapshotWords()

		// Mutate past the snapshot, then restore: the pre-mutation state must
		// come back wholesale.
		buf := tuple.NewBuffer(2, 50)
		for i := 0; i < 50; i++ {
			buf.Append(tuple.Tuple{tuple.Value(1000 + i), tuple.Value(i)})
		}
		r.Materialize(1, buf, false)
		if err := r.Restore(ownShard(c, snap)); err != nil {
			return err
		}
		if err := sameWords(r, snap); err != nil {
			return err
		}
		if got := dumpFull(r); !sameTuples(got, want) {
			return fmt.Errorf("rank %d: restored FULL diverges (%d vs %d tuples)", c.Rank(), len(got), len(want))
		}
		if r.ChangedLast() != wantChanged {
			return fmt.Errorf("changed count %d after restore, want %d", r.ChangedLast(), wantChanged)
		}
		if got := r.GlobalFullCount(); got != 300 {
			return fmt.Errorf("global count = %d after restore", got)
		}
		return r.CheckInvariants()
	})
}

func TestSnapshotRestoreAggRelation(t *testing.T) {
	const ranks = 4
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(aggSchema("sp", 2, lattice.Min{}), c, mc, Config{Subs: 2})
		if err != nil {
			return err
		}
		if _, err := r.AddIndex([]int{1, 0, 2}, 1); err != nil {
			return err
		}
		// Two rounds of improvements so Δ and the accumulator carry
		// non-trivial state into the snapshot.
		for round := 0; round < 2; round++ {
			buf := tuple.NewBuffer(3, 32)
			for i := 0; i < 32; i++ {
				key := tuple.Value(i % 8)
				buf.Append(tuple.Tuple{key, key + 1, tuple.Value(100 - round*30 + i%3)})
			}
			r.Materialize(round, buf, false)
		}
		want := dumpFull(r)
		snap := r.SnapshotWords()

		buf := tuple.NewBuffer(3, 8)
		for i := 0; i < 8; i++ {
			buf.Append(tuple.Tuple{tuple.Value(i % 8), tuple.Value(i%8 + 1), 1})
		}
		r.Materialize(2, buf, false)
		if err := r.Restore(ownShard(c, snap)); err != nil {
			return err
		}
		if err := sameWords(r, snap); err != nil {
			return err
		}
		if got := dumpFull(r); !sameTuples(got, want) {
			return fmt.Errorf("rank %d: restored FULL diverges", c.Rank())
		}
		// Restored accumulators must still reject worse and accept better.
		buf.Reset()
		buf.Append(tuple.Tuple{0, 1, 9999})
		if ch := r.Materialize(3, buf, false); ch != 0 {
			return fmt.Errorf("worse value changed %d entries after restore", ch)
		}
		return r.CheckInvariants()
	})
}

func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	runWorld(t, 1, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		r, err := New(setSchema("edge", 2, 1), c, mc, Config{})
		if err != nil {
			return err
		}
		r.LoadShare(20, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{tuple.Value(i), tuple.Value(i)})
		})
		snap := r.SnapshotWords()
		// A rejected snapshot must say which relation, whose shard and where:
		// the word offset the reader stopped at, out of the shard's length.
		reject := func(what string, words []mpi.Word, origin, at int) error {
			err := r.Restore([]Shard{{Origin: origin, Words: words}})
			if err == nil {
				return fmt.Errorf("accepted %s", what)
			}
			for _, want := range []string{
				"relation edge", fmt.Sprintf("from rank %d", origin),
				fmt.Sprintf("(at word %d of %d)", at, len(words)),
			} {
				if !strings.Contains(err.Error(), want) {
					return fmt.Errorf("%s: error %q does not say %q", what, err, want)
				}
			}
			// A rejected shard set leaves the relation as it was.
			return sameWords(r, snap)
		}
		if err := reject("truncated header", snap[:2], 0, 0); err != nil {
			return err
		}
		// The last heavy set's slot count is gone with the last word.
		if err := reject("truncated payload", snap[:len(snap)-1], 3, len(snap)-1); err != nil {
			return err
		}
		if err := reject("trailing words", append(append([]mpi.Word(nil), snap...), 0), 0, len(snap)); err != nil {
			return err
		}
		// Counts come from storage: one that the remaining words cannot hold
		// is refused before anything is sized from it.
		empty := []mpi.Word{1, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0}
		for at, what := range map[int]string{4: "FULL tree", 5: "Δ tree", 6: "accumulator", 7: "leaky", 8: "heavy set", 9: "heavy slot"} {
			for _, n := range []mpi.Word{1 << 36, 1 << 61, 1<<64 - 1} {
				words := append([]mpi.Word(nil), empty...)
				words[at] = n
				if err := reject(fmt.Sprintf("%s count %d over no entries", what, n), words, 0, at); err != nil {
					return err
				}
			}
		}
		for _, slots := range [][]mpi.Word{{heavySlots}, {3, 3}, {5, 2}} {
			words := append(append(append(empty[:9:9], mpi.Word(len(slots))), slots...), 0)
			if err := reject(fmt.Sprintf("heavy slots %v", slots), words, 0, 9); err != nil {
				return err
			}
		}
		for _, subs := range []mpi.Word{0, 1 << 63, 1<<64 - 1} {
			words := append([]mpi.Word(nil), empty...)
			words[0] = subs
			if err := reject(fmt.Sprintf("sub-bucket count %d", subs), words, 0, 0); err != nil {
				return err
			}
		}
		if err := r.Restore(nil); err == nil {
			return fmt.Errorf("accepted an empty shard set")
		}
		// The intact snapshot must still restore after the failed attempts.
		return r.Restore(ownShard(c, snap))
	})
}

// TestRestoreRejectsTornShardSets pins the torn-set check: the sub-bucket
// count, the cached changed count and the heavy sets are collectively
// agreed, so shards that disagree on any cannot belong to one checkpoint.
func TestRestoreRejectsTornShardSets(t *testing.T) {
	runWorld(t, 1, func(c *mpi.Comm) error {
		r, err := New(setSchema("edge", 2, 1), c, metrics.NewCollector(1), Config{})
		if err != nil {
			return err
		}
		for at, what := range []string{"subs", "changed count", "heavy sets"} {
			a := []mpi.Word{1, 7, 0, 1, 0, 0, 0, 0, 2, 0, 0}
			b := append([]mpi.Word(nil), a...)
			if at < 2 {
				b[at]++
			} else {
				b = append(b[:9], 1, 5, 0)
			}
			err := r.Restore([]Shard{{Origin: 0, Words: a}, {Origin: 1, Words: b}})
			if err == nil || !strings.Contains(err.Error(), "torn checkpoint set") || !strings.Contains(err.Error(), "from rank 1") {
				return fmt.Errorf("shards disagreeing on %s: err = %v", what, err)
			}
		}
		return nil
	})
}
