package relation

import (
	"fmt"
	"math"
	"slices"

	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// Relation snapshots. A snapshot captures one rank's complete shard of a
// relation — every registered index's FULL and Δ in ascending order, the
// aggregate accumulator, the sub-bucket count, the heavy join keys, the
// local Δ count, and the cached global changed count — as a flat word
// buffer, the same representation the wire uses. Restoring the snapshot on
// a fresh (or poisoned-and-rebuilt) world reproduces the rank's state bit
// for bit, which is what lets the fixpoint driver resume mid-run after a
// rank failure and still reach the identical fixpoint.
//
// Snapshots are written rank-locally: each rank saves its own shard, and the
// fixpoint layer coordinates that all ranks act on the same iteration's
// snapshots. A restore reads whichever shards this rank can own tuples from
// — its own on a world of the writing size, all of them otherwise.

// SnapshotWords serializes this rank's shard. The layout is
//
//	subs, changedLast, deltaCount,
//	nIndexes, { nFull, tuples..., nDelta, tuples... } per index,
//	nAcc, { indep..., dep... } per accumulator entry,
//	nLeaky, { key..., best... } per leaky partial-best entry,
//	nHeavy, { nSlots, slot... } per index and then for the placement
//	(heavySets), slots ascending.
func (r *Relation) SnapshotWords() []mpi.Word {
	out := make([]mpi.Word, 0, 64)
	out = append(out, mpi.Word(r.subs), r.changedLast, mpi.Word(r.deltaCount))
	out = append(out, mpi.Word(len(r.indexes)))
	for _, ix := range r.indexes {
		for _, v := range [2]View{ix.Full(), ix.Delta()} {
			out = append(out, mpi.Word(v.Len()))
			v.Ascend(func(t tuple.Tuple) bool {
				out = append(out, t...)
				return true
			})
		}
	}
	nAcc := 0
	if r.acc != nil {
		nAcc = r.acc.Len()
	}
	out = append(out, mpi.Word(nAcc))
	if r.acc != nil {
		r.acc.Each(func(indep, dep []tuple.Value) bool {
			out = append(out, indep...)
			out = append(out, dep...)
			return true
		})
	}
	nLeaky := 0
	if r.leakyBest != nil {
		nLeaky = r.leakyBest.Len()
	}
	out = append(out, mpi.Word(nLeaky))
	if r.leakyBest != nil {
		r.leakyBest.Each(func(key, best []tuple.Value) bool {
			out = append(out, key...)
			out = append(out, best...)
			return true
		})
	}
	out = append(out, mpi.Word(r.heavySets()))
	for i := range r.heavySets() {
		s, _ := r.heavyOf(i)
		out = appendHeavy(out, s)
	}
	return out
}

// Shard is one rank's SnapshotWords payload together with the rank that
// wrote it.
type Shard struct {
	Origin int
	Words  []mpi.Word
}

// Restore replaces this rank's shard with what the current placement assigns
// to it out of a set of snapshot shards, each produced by SnapshotWords on a
// relation of the identical schema and index registry — on a world of any
// size. Placement is a pure function of a tuple's key columns, the
// sub-bucket count, the heavy sets and the world size, so ranks that each
// read a complete shard set keep disjoint shares whose union is the union
// that was saved; on a world of the writing size a rank's own shard passes
// every filter below, so restoring from it alone reproduces the saved state
// word for word. Existing contents are discarded wholesale (restoring over
// reloaded base facts is safe); a shard set that fails validation leaves
// the relation untouched.
//
//   - index tuples re-bucket by their join-key/independent columns, or by
//     the relation's placement for a local index — each tuple has exactly
//     one home, so the per-rank shards stay disjoint;
//   - accumulator entries re-place by independent key and merge through the
//     lattice ⊔ in shard-then-stored order (order-independence makes the
//     merge sound even if a key somehow arrives from several old shards);
//   - leaky partial-best entries (baseline engines only) go to rank
//     origin mod size and ⊔-merge: they only gate pruning, so any complete
//     deterministic placement preserves correctness;
//   - so do the local Δ counts, which are summed: only their global sum is
//     ever read (the routing lane headers and Settle agree it).
//
// The sub-bucket count, the heavy sets and the cached global changed count
// (Unsettled included) are collectively agreed, so every shard holds the
// same values (a mismatch means a torn checkpoint set and is an error). The
// restored heavy sets replace whatever a load decided and stay fixed.
func (r *Relation) Restore(shards []Shard) error {
	if len(shards) == 0 {
		return fmt.Errorf("relation %s: restore from an empty shard set", r.Name)
	}
	rank, size := r.comm.Rank(), r.comm.Size()

	// Split every shard into its count-prefixed runs first. The words come
	// from storage: each count is bounded by the words that remain before
	// anything is sliced or sized from it, and nothing of the relation
	// changes until every shard has parsed to its last word.
	type runs struct {
		trees      [][]mpi.Word // FULL then Δ, per index
		acc, leaky []mpi.Word
		heavy      []mpi.Word // the heavy sets' section, whole
	}
	split := make([]runs, len(shards))
	var accWords, leakyWords int
	for i, sh := range shards {
		w, off := sh.Words, 0
		fail := func(format string, args ...any) error {
			return fmt.Errorf("relation %s: corrupt snapshot from rank %d: %s (at word %d of %d)",
				r.Name, sh.Origin, fmt.Sprintf(format, args...), off, len(w))
		}
		var err error
		run := func(what string, width int) []mpi.Word {
			if err != nil {
				return nil
			}
			if off == len(w) {
				err = fail("truncated before the %s count", what)
				return nil
			}
			n, left := w[off], len(w)-off-1
			if n > mpi.Word(left/width) {
				err = fail("%d %s of %d words declared, %d words left", n, what, width, left)
				return nil
			}
			start := off + 1
			off = start + int(n)*width
			return w[start:off]
		}
		if len(w) < 4 {
			return fail("truncated header")
		}
		// The upper bound keeps a sub-bucket index, and rankOf's
		// bucket+sub, well inside an int.
		if w[0] < 1 || w[0] > mpi.Word(math.MaxInt/size) {
			return fail("sub-bucket count %d out of range", w[0])
		}
		if w[3] != mpi.Word(len(r.indexes)) {
			return fail("%d indexes, relation has %d", w[3], len(r.indexes))
		}
		if first := shards[0].Words; w[0] != first[0] || w[1] != first[1] {
			return fail("subs/changed %d/%d, rank %d's shard has %d/%d: torn checkpoint set",
				w[0], w[1], shards[0].Origin, first[0], first[1])
		}
		sp := &split[i]
		off = 4
		for range 2 * len(r.indexes) {
			sp.trees = append(sp.trees, run("tree tuples", r.Arity))
		}
		sp.acc = run("accumulator entries", r.Arity)
		sp.leaky = run("leaky entries", r.Arity)
		heavyAt := off
		switch {
		case err != nil:
		case off == len(w) || w[off] != mpi.Word(r.heavySets()):
			err = fail("heavy set count missing or not %d", r.heavySets())
		default:
			off++
			for range r.heavySets() {
				at := off
				if slots := run("heavy slots", 1); err == nil && !validSlots(slots) {
					off = at
					err = fail("heavy slots %v not ascending below %d", slots, heavySlots)
				}
			}
		}
		sp.heavy = w[heavyAt:off]
		switch {
		case err != nil:
			return err
		case !slices.Equal(sp.heavy, split[0].heavy):
			return fail("heavy sets differ from rank %d's shard: torn checkpoint set", shards[0].Origin)
		case len(sp.acc) > 0 && r.Agg == nil:
			return fail("accumulator entries in a set-relation snapshot")
		case len(sp.leaky) > 0 && r.leaky == nil:
			return fail("leaky entries in a non-leaky relation snapshot")
		case off != len(w):
			return fail("%d trailing words", len(w)-off)
		}
		accWords += len(sp.acc)
		leakyWords += len(sp.leaky)
	}

	r.subs = int(shards[0].Words[0])
	r.changedLast = shards[0].Words[1]
	heavy := split[0].heavy[1:]
	for i := range r.heavySets() {
		r.setHeavy(i, readHeavy(heavy[1:1+heavy[0]]))
		heavy = heavy[1+heavy[0]:]
	}
	r.placed = true
	r.deltaCount = 0
	for _, sh := range shards {
		if sh.Origin%size == rank {
			r.deltaCount += int(sh.Words[2])
		}
	}
	r.rebuildHomeCaches()
	// The restored state belongs to an earlier iteration; the history
	// baseline the integrity digests were tracking no longer applies.
	r.invalidateDigestBaseline()

	// Entries are walked as views into the shards, in shard-then-stored
	// order; only what this rank keeps is copied. Each table is sized for the
	// mean shard read: the writing world was hash balanced, and at its size
	// the one shard read is exactly what is kept.
	for x, ix := range r.indexes {
		keep := func(which int) { // FULL's tuples, then Δ's, into Δ's run
			ix.resetDelta()
			for i := range split {
				for run := split[i].trees[2*x+which]; len(run) > 0; run = run[r.Arity:] {
					if t := tuple.Tuple(run[:r.Arity]); ix.ownedHere(t) {
						ix.delta.Append(t)
					}
				}
			}
		}
		keep(0)
		ix.fill(&ix.delta)
		keep(1)
		ix.delta.Sort(&r.sorter)
	}

	if r.Agg != nil {
		r.acc = wordmap.NewWithCapacity(r.Indep, r.Dep(), accWords/r.Arity/len(shards))
		for i := range split {
			for run := split[i].acc; len(run) > 0; run = run[r.Arity:] {
				if key := run[:r.Indep]; r.accPlacement(key) == rank {
					r.mergeDep(r.Agg, r.acc, key, run[r.Indep:r.Arity])
				}
			}
		}
	}

	if r.leaky != nil {
		li := r.leaky.Indep
		r.leakyBest = wordmap.NewWithCapacity(li, r.Arity-li, leakyWords/r.Arity/len(shards))
		for i := range split {
			if shards[i].Origin%size != rank {
				continue
			}
			for run := split[i].leaky; len(run) > 0; run = run[r.Arity:] {
				r.mergeDep(r.leaky.Agg, r.leakyBest, run[:li], run[li:r.Arity])
			}
		}
	}
	return nil
}
