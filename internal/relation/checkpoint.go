package relation

import (
	"fmt"

	"paralagg/internal/btree"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// Relation snapshots. A snapshot captures one rank's complete shard of a
// relation — every index's FULL and Δ trees, the aggregate accumulator, the
// tuple-identity map, the sub-bucket count, and the cached global changed
// count — as a flat word buffer, the same representation the wire uses.
// Restoring the snapshot on a fresh (or poisoned-and-rebuilt) world
// reproduces the rank's state bit for bit, which is what lets the fixpoint
// driver resume mid-run after a rank failure and still reach the identical
// fixpoint.
//
// Snapshots are rank-local: each rank saves and restores its own shard, and
// the fixpoint layer coordinates that all ranks act on the same iteration's
// snapshots.

// SnapshotWords serializes this rank's shard. The layout is
//
//	subs, changedLast, idCounter,
//	nIndexes, { nFull, tuples..., nDelta, tuples... } per index,
//	nAcc, { indep..., dep... } per accumulator entry,
//	nIds, { key..., id } per identity entry,
//	nLeaky, { key..., best... } per leaky partial-best entry.
func (r *Relation) SnapshotWords() []mpi.Word {
	out := make([]mpi.Word, 0, 64)
	out = append(out, mpi.Word(r.subs), r.changedLast, r.idCounter)
	out = append(out, mpi.Word(len(r.indexes)))
	for _, ix := range r.indexes {
		for _, tree := range []*btree.Tree{ix.Full, ix.Delta} {
			out = append(out, mpi.Word(tree.Len()))
			tree.Ascend(func(t tuple.Tuple) bool {
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
	out = append(out, mpi.Word(r.LocalIDCount()))
	if r.ids != nil {
		r.ids.Each(func(key, id []tuple.Value) bool {
			out = append(out, key...)
			out = append(out, id[0])
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
	return out
}

// idKeyWords is the word length of a tuple-identity key: the independent
// columns for aggregated relations, the whole tuple for set relations.
func (r *Relation) idKeyWords() int {
	if r.Agg != nil {
		return r.Indep
	}
	return r.Arity
}

// RestoreWords replaces this rank's shard with a snapshot produced by
// SnapshotWords on a relation of the identical schema and index registry.
// Existing contents are discarded wholesale, so restoring over a partially
// mutated relation (e.g. after reloading base facts) is safe.
func (r *Relation) RestoreWords(words []mpi.Word) error {
	fail := func(what string) error {
		return fmt.Errorf("relation %s: corrupt snapshot: %s (at %d of %d words)", r.Name, what, 0, len(words))
	}
	next := func(n int) ([]mpi.Word, bool) {
		if len(words) < n {
			return nil, false
		}
		chunk := words[:n]
		words = words[n:]
		return chunk, true
	}
	head, ok := next(4)
	if !ok {
		return fail("truncated header")
	}
	subs, changed, idCounter, nIdx := int(head[0]), head[1], head[2], int(head[3])
	if subs < 1 || nIdx != len(r.indexes) {
		return fmt.Errorf("relation %s: snapshot has %d indexes / %d subs, relation has %d indexes",
			r.Name, nIdx, subs, len(r.indexes))
	}
	for _, ix := range r.indexes {
		for which := 0; which < 2; which++ {
			cnt, ok := next(1)
			if !ok {
				return fail("truncated tree count")
			}
			if cnt[0] > mpi.Word(len(words)/r.Arity) {
				return fail("truncated tree tuple")
			}
			run, _ := next(int(cnt[0]) * r.Arity)
			tree := ix.Full
			if which == 1 {
				tree = ix.Delta
			}
			r.rebuild(tree, run)
		}
	}
	cnt, ok := next(1)
	if !ok {
		return fail("truncated accumulator count")
	}
	nAcc := int(cnt[0])
	if nAcc > 0 && r.Agg == nil {
		return fail("accumulator entries in a set-relation snapshot")
	}
	if r.Agg != nil {
		r.acc = wordmap.NewWithCapacity(r.Indep, r.Dep(), nAcc)
	}
	for i := 0; i < nAcc; i++ {
		e, ok := next(r.Arity)
		if !ok {
			return fail("truncated accumulator entry")
		}
		v, _ := r.acc.Upsert(e[:r.Indep])
		copy(v, e[r.Indep:])
	}
	cnt, ok = next(1)
	if !ok {
		return fail("truncated id count")
	}
	nIds, kw := int(cnt[0]), r.idKeyWords()
	r.ids = nil
	if nIds > 0 {
		r.ids = wordmap.NewWithCapacity(kw, 1, nIds)
	}
	for i := 0; i < nIds; i++ {
		e, ok := next(kw + 1)
		if !ok {
			return fail("truncated id entry")
		}
		v, _ := r.ids.Upsert(e[:kw])
		v[0] = e[kw]
	}
	cnt, ok = next(1)
	if !ok {
		return fail("truncated leaky count")
	}
	nLeaky := int(cnt[0])
	if nLeaky > 0 && r.leaky == nil {
		return fail("leaky entries in a non-leaky relation snapshot")
	}
	if r.leaky != nil {
		r.leakyBest = wordmap.NewWithCapacity(r.leaky.Indep, r.Arity-r.leaky.Indep, nLeaky)
	}
	for i := 0; i < nLeaky; i++ {
		e, ok := next(r.Arity)
		if !ok {
			return fail("truncated leaky entry")
		}
		v, _ := r.leakyBest.Upsert(e[:r.leaky.Indep])
		copy(v, e[r.leaky.Indep:])
	}
	if len(words) != 0 {
		return fail(fmt.Sprintf("%d trailing words", len(words)))
	}
	r.subs = subs
	r.changedLast = changed
	r.idCounter = idCounter
	r.rebuildHomeCaches()
	// The restored state belongs to an earlier iteration; the history
	// baseline the integrity digests were tracking no longer applies.
	r.invalidateDigestBaseline()
	return nil
}

// Snapshot is one rank's shard decoded into neutral form: the tuples and
// map entries without any placement assumptions. It is the unit of
// world-size-independent restore — a set of Snapshots taken on an N-rank
// world can be re-hashed into any M-rank world because every tuple carries
// enough information to recompute its home under the new layout.
type Snapshot struct {
	Subs        int
	ChangedLast mpi.Word
	IDCounter   mpi.Word
	// Trees holds, per index, the FULL and Δ tuple lists in stored
	// (permuted) order.
	Trees [][2][]tuple.Tuple
	// Acc lists accumulator entries as canonical tuples (indep ++ dep).
	Acc []tuple.Tuple
	// IDs lists tuple-identity entries: the key columns plus the id.
	IDs []IDEntry
	// Leaky lists leaky partial-best entries as canonical-width tuples.
	Leaky []tuple.Tuple
}

// IDEntry is one tuple-identity record: the canonical key (independent
// columns for aggregated relations, the whole tuple for set relations) and
// the globally unique id allocated for it.
type IDEntry struct {
	Key []tuple.Value
	ID  uint64
}

// DecodeSnapshotWords parses a SnapshotWords payload produced by a relation
// of the identical schema — on any world size — into a neutral Snapshot.
// It shares RestoreWords' layout but binds nothing to this rank.
func (r *Relation) DecodeSnapshotWords(words []mpi.Word) (*Snapshot, error) {
	fail := func(what string) error {
		return fmt.Errorf("relation %s: corrupt snapshot: %s (%d words left)", r.Name, what, len(words))
	}
	next := func(n int) ([]mpi.Word, bool) {
		if len(words) < n {
			return nil, false
		}
		chunk := words[:n]
		words = words[n:]
		return chunk, true
	}
	head, ok := next(4)
	if !ok {
		return nil, fail("truncated header")
	}
	s := &Snapshot{Subs: int(head[0]), ChangedLast: head[1], IDCounter: head[2]}
	nIdx := int(head[3])
	if s.Subs < 1 || nIdx != len(r.indexes) {
		return nil, fmt.Errorf("relation %s: snapshot has %d indexes / %d subs, relation has %d indexes",
			r.Name, nIdx, s.Subs, len(r.indexes))
	}
	s.Trees = make([][2][]tuple.Tuple, nIdx)
	for i := 0; i < nIdx; i++ {
		for which := 0; which < 2; which++ {
			cnt, ok := next(1)
			if !ok {
				return nil, fail("truncated tree count")
			}
			for j := 0; j < int(cnt[0]); j++ {
				tw, ok := next(r.Arity)
				if !ok {
					return nil, fail("truncated tree tuple")
				}
				s.Trees[i][which] = append(s.Trees[i][which], tuple.Tuple(tw).Clone())
			}
		}
	}
	cnt, ok := next(1)
	if !ok {
		return nil, fail("truncated accumulator count")
	}
	nAcc := int(cnt[0])
	if nAcc > 0 && r.Agg == nil {
		return nil, fail("accumulator entries in a set-relation snapshot")
	}
	for i := 0; i < nAcc; i++ {
		e, ok := next(r.Arity)
		if !ok {
			return nil, fail("truncated accumulator entry")
		}
		s.Acc = append(s.Acc, tuple.Tuple(e).Clone())
	}
	cnt, ok = next(1)
	if !ok {
		return nil, fail("truncated id count")
	}
	nIds, kw := int(cnt[0]), r.idKeyWords()
	for i := 0; i < nIds; i++ {
		e, ok := next(kw + 1)
		if !ok {
			return nil, fail("truncated id entry")
		}
		s.IDs = append(s.IDs, IDEntry{Key: append([]tuple.Value(nil), e[:kw]...), ID: e[kw]})
	}
	cnt, ok = next(1)
	if !ok {
		return nil, fail("truncated leaky count")
	}
	nLeaky := int(cnt[0])
	if nLeaky > 0 && r.leaky == nil {
		return nil, fail("leaky entries in a non-leaky relation snapshot")
	}
	for i := 0; i < nLeaky; i++ {
		e, ok := next(r.Arity)
		if !ok {
			return nil, fail("truncated leaky entry")
		}
		s.Leaky = append(s.Leaky, tuple.Tuple(e).Clone())
	}
	if len(words) != 0 {
		return nil, fail(fmt.Sprintf("%d trailing words", len(words)))
	}
	return s, nil
}

// RestoreRemapped replaces this rank's shard with the union of snapshots
// taken on a world of a different size, re-hashed through this world's
// bucket/sub-bucket layout. Every rank passes the complete snapshot set (one
// per original rank, in original rank order); each keeps exactly the tuples
// the new placement assigns to it, so the union across the new world equals
// the union across the old one:
//
//   - index tuples re-bucket by their join-key/independent columns — each
//     tuple has exactly one home, so the per-rank shards stay disjoint;
//   - accumulator entries re-place by independent key and re-merge through
//     the lattice ⊔ (order-independence makes the merge sound even if a key
//     somehow arrives from several old shards);
//   - tuple-identity entries follow their key's canonical home, keeping
//     their original ids; the bump counter advances past every id whose
//     owner bits name this rank, so future allocations stay globally unique;
//   - leaky partial-best entries (baseline engines only) re-place by key
//     hash and ⊔-merge — any placement preserves correctness because they
//     only gate pruning.
//
// The sub-bucket count and cached global changed count carry over unchanged:
// both are collectively agreed scalars, so every snapshot holds the same
// values (a mismatch means a torn checkpoint set and is an error).
func (r *Relation) RestoreRemapped(snaps []*Snapshot) error {
	if len(snaps) == 0 {
		return fmt.Errorf("relation %s: remap restore with no snapshots", r.Name)
	}
	for i, s := range snaps {
		if s.Subs != snaps[0].Subs || s.ChangedLast != snaps[0].ChangedLast {
			return fmt.Errorf("relation %s: snapshot %d disagrees on subs/changed (%d/%d vs %d/%d): torn checkpoint set",
				r.Name, i, s.Subs, s.ChangedLast, snaps[0].Subs, snaps[0].ChangedLast)
		}
		if len(s.Trees) != len(r.indexes) {
			return fmt.Errorf("relation %s: snapshot %d has %d indexes, relation has %d",
				r.Name, i, len(s.Trees), len(r.indexes))
		}
	}
	r.subs = snaps[0].Subs
	r.changedLast = snaps[0].ChangedLast
	r.rebuildHomeCaches()
	r.invalidateDigestBaseline()

	// Index trees: keep every stored tuple whose new (bucket, sub) home is
	// this rank. Placement depends only on join-key/independent columns, so
	// FULL and Δ membership re-partition without loss or duplication.
	for i, ix := range r.indexes {
		for which, tree := range [2]*btree.Tree{ix.Full, ix.Delta} {
			var words []tuple.Value
			for _, s := range snaps {
				for _, t := range s.Trees[i][which] {
					if ix.ownedHere(t) {
						words = append(words, t...)
					}
				}
			}
			r.rebuild(tree, words)
		}
	}

	// Accumulator: entries re-place by independent key; ⊔-merge defends
	// against duplicate keys across shards.
	if r.Agg != nil {
		r.acc = wordmap.New(r.Indep, r.Dep())
		for _, s := range snaps {
			for _, t := range s.Acc {
				if r.accPlacement(t[:r.Indep]) != r.comm.Rank() {
					continue
				}
				r.mergeDep(r.Agg, r.acc, t[:r.Indep], t[r.Indep:])
			}
		}
	}

	// Tuple identities: an entry follows its key's canonical home. The
	// bump counter must clear every id whose owner bits name this rank —
	// those ids exist somewhere in the new world regardless of which rank
	// now stores them, and a fresh allocation colliding with one would
	// break global uniqueness.
	r.ids = nil
	var nextCounter uint64
	for _, s := range snaps {
		for _, e := range s.IDs {
			if IDOwner(e.ID) == r.comm.Rank() {
				if c := (e.ID & (1<<idRankShift - 1)) + 1; c > nextCounter {
					nextCounter = c
				}
			}
			if !r.ownsIDKey(e.Key) {
				continue
			}
			if r.ids == nil {
				r.ids = wordmap.New(r.idKeyWords(), 1)
			}
			v, _ := r.ids.Upsert(e.Key)
			v[0] = e.ID
		}
	}
	if r.comm.Rank() < len(snaps) && snaps[r.comm.Rank()].IDCounter > nextCounter {
		nextCounter = snaps[r.comm.Rank()].IDCounter
	}
	r.idCounter = nextCounter

	// Leaky partial bests: rank-local pruning caches with no canonical
	// placement; distribute deterministically by key hash and ⊔-merge.
	if r.leaky != nil {
		r.leakyBest = wordmap.New(r.leaky.Indep, r.Arity-r.leaky.Indep)
		for _, s := range snaps {
			for _, t := range s.Leaky {
				key := t[:r.leaky.Indep]
				if int(tuple.Tuple(key).Hash()%uint64(r.comm.Size())) != r.comm.Rank() {
					continue
				}
				r.mergeDep(r.leaky.Agg, r.leakyBest, key, t[r.leaky.Indep:])
			}
		}
	}
	return nil
}

// ownsIDKey reports whether a tuple-identity key's canonical home is this
// rank under the current layout: the accumulator placement for aggregated
// relations, the canonical index placement for set relations.
func (r *Relation) ownsIDKey(key []tuple.Value) bool {
	if r.Agg != nil {
		return r.accPlacement(key) == r.comm.Rank()
	}
	return r.indexes[0].ownedHere(tuple.Tuple(key))
}
