package relation

import (
	"slices"

	"paralagg/internal/lattice"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// This file implements the deletion side of incremental maintenance. The
// serving engine's invalidation drops candidate tuples batch by batch,
// leaving exactly the dropped tuples in Δ so the next invalidation round can
// chase their dependents. An aggregated key whose retraction is bounded
// (BoundRetraction) is dropped only by a candidate that attains its stored
// value; any other key a candidate reaches is dropped whatever it holds.
// EndDelete then compacts the accumulator without the dropped keys, and
// SeedDelta seeds the re-derivation. The wordmap arena only grows between
// compactions, so the bracket tracks what it dropped in a side set
// (dropSet), which EndDelete filters the accumulator by in place, a
// catch-up inside the bracket leaves out, and Dropped reports.

// ClearDelta empties every index's Δ run and zeroes the Δ and cached
// changed counts. It is rank-local but must be called uniformly (the changed
// count gates collective join variants).
func (r *Relation) ClearDelta() {
	for _, ix := range r.indexes {
		ix.resetDelta()
	}
	r.deltaCount = 0
	r.changedLast = 0
}

// Clear resets the relation to its freshly loaded-nothing state: the
// accumulator and every index's FULL and Δ are dropped. Rank-local;
// call uniformly. The serving engine's from-scratch fallback clears every
// derived relation with it before reloading base facts from the relation's
// base shadow.
func (r *Relation) Clear() {
	if r.Agg != nil {
		r.acc = wordmap.New(r.Indep, r.Dep())
	}
	if r.leakyBest != nil {
		r.leakyBest = wordmap.New(r.leaky.Indep, r.Arity-r.leaky.Indep)
	}
	r.dropSet, r.deleting = nil, false
	for _, ix := range r.indexes {
		ix.resetDelta()
		ix.fill(&ix.delta) // FULL empty, Δ a view of it
	}
	r.deltaCount = 0
	r.changedLast = 0
	r.invalidateDigestBaseline()
}

// ResetDelta re-seeds Δ with the relation's entire FULL contents, as a view
// (Index.Delta, which catches a stale FULL up when read), and agrees its
// changed count, so a later stratum's rules see previously computed tuples
// as fresh. Collective.
func (r *Relation) ResetDelta() {
	for _, ix := range r.indexes {
		ix.resetDelta()
		ix.deltaIsFull = true
	}
	r.deltaCount = r.LocalFullCount()
	r.changedLast = r.GlobalFullCount()
}

// Filter selects the tuples whose value in canonical column Col is a key
// of Values, a set of one-word keys.
type Filter struct {
	Col    int
	Values *wordmap.Map
}

// SeedDelta adds to every index's Δ, on this rank, the FULL tuples some
// filter selects: the supports a re-derivation after a delete must join
// again. Δ keeps what it held, so a reload's changed tuples stay, and an
// index whose Δ is a view of FULL already holds them all. It communicates
// nothing: the changed count becomes Unsettled, which lets every gated
// variant run until the next pass agrees it. Call it uniformly.
func (r *Relation) SeedDelta(filters []Filter) {
	pos := make([]int, len(filters))
	for id, ix := range r.indexes {
		if ix.deltaIsFull {
			continue
		}
		for i, f := range filters {
			pos[i] = slices.Index(ix.Perm, f.Col)
		}
		held := ix.delta.Len()
		ix.Full().Ascend(func(t tuple.Tuple) bool {
			for i, f := range filters {
				if f.Values.Get(t[pos[i]:pos[i]+1]) != nil {
					ix.delta.Append(t)
					break
				}
			}
			return true
		})
		ix.delta.Sort(&r.sorter)
		if id == 0 {
			r.deltaCount += ix.delta.Len() - held // Δ's size is counted on one index
		}
	}
	r.changedLast = Unsettled
}

// BeginDelete opens a deletion bracket. Between BeginDelete and EndDelete
// any number of DeleteBatch calls may run (the invalidation loop issues one
// per relation per round); the bracket-wide dropSet records every tuple
// they drop, deduplicates an aggregated relation's candidates across rounds
// and defers its accumulator compaction to EndDelete.
func (r *Relation) BeginDelete() {
	if r.dropSet == nil {
		r.dropSet = wordmap.New(r.Indep, r.Dep())
	} else {
		r.dropSet.Reset()
	}
	r.deleting = true
}

// EndDelete closes a deletion bracket: an aggregated relation's accumulator
// drops the bracket's keys in place, and the digest baselines are
// invalidated so the next Materialize re-adopts them. Warm, it allocates
// nothing. Dropped still reports the bracket until the next BeginDelete.
func (r *Relation) EndDelete() {
	r.deleting = false
	if r.Agg == nil || r.dropSet == nil || r.dropSet.Len() == 0 {
		return
	}
	ds := r.dropSet
	r.acc.Filter(func(key, _ []tuple.Value) bool { return ds.Get(key) == nil })
	r.invalidateDigestBaseline()
}

// Dropped returns the tuples the last deletion bracket dropped on this rank,
// in canonical column order, Arity words each and laid end to end; an
// aggregated key carries the value it held. The words alias the bracket's
// drop set and stay valid until the next BeginDelete or Clear.
func (r *Relation) Dropped() []tuple.Value {
	if r.dropSet == nil {
		return nil
	}
	return r.dropSet.Words()
}

// BoundRetraction lets DeleteBatch keep an aggregated key whose stored value
// is strictly better than a candidate's: that derivation did not attain it.
// It is a no-op unless the lattice is selective (lattice.Selective), and
// sound only if, besides, no rule derives a value of the relation better
// than the value of a derived tuple it reads; otherwise a key could keep a
// value whose only support is a cycle through the key itself. core decides
// that per stratum. Call it uniformly, before any delete.
func (r *Relation) BoundRetraction() {
	r.bounded = r.Agg != nil && lattice.Selective(r.Agg)
}

// DeleteBatch removes a batch of candidate tuples from the relation and
// seeds Δ with exactly the tuples actually dropped, so invalidation rounds
// can chase their dependents through the stratum's rules. It is collective
// and must be called on every rank (candidates may differ per rank; they
// are routed to their owners first). Candidates are canonical-order tuples.
// A set relation drops the candidates it holds. An aggregated relation
// drops a candidate's key whatever it holds, unless its retraction is
// bounded (BoundRetraction) and the stored value is strictly better than
// the candidate's, which then did not attain it. Candidates already
// dropped in this bracket, or not present at all, are skipped. Returns the
// global number of tuples dropped this call (identical on every rank) and
// caches it as the relation's changed count.
//
// Aggregated relations must be inside a BeginDelete/EndDelete bracket (one
// opens if none is): the accumulator still holds dropped keys until
// EndDelete compacts it, so reads between batches must consult Δ or FULL —
// a local index's drops mark it stale, and its catch-up leaves them out.
func (r *Relation) DeleteBatch(cands *tuple.Buffer) uint64 {
	size := r.comm.Size()

	// Δ from the previous round has been consumed; this round's Δ holds
	// exactly what this call drops.
	if r.Agg != nil && !r.deleting {
		r.BeginDelete()
	}
	for _, ix := range r.indexes {
		ix.resetDelta()
	}

	// Phase A: route candidates to their owners (routeOf), as Materialize
	// routes insertions.
	send := r.sendBuf(size)
	n := 0
	if cands != nil {
		n = cands.Len()
	}
	for i := 0; i < n; i++ {
		t := cands.At(i)
		dest := r.routeOf(t)
		send[dest] = append(send[dest], t...)
	}
	recv := r.comm.Alltoallv(send)

	// Owner-side drop. The removed buffer collects the dropped tuples in
	// canonical order, carrying the dependent value each key held — the
	// next round's rules derive dependents from the dropped values.
	var removed *tuple.Buffer
	if r.Agg != nil {
		removed = r.freshTuples()
		scratch := r.tupleScratch()
		for _, words := range recv {
			for off := 0; off+r.Arity <= len(words); off += r.Arity {
				t := tuple.Tuple(words[off : off+r.Arity])
				key := t[:r.Indep]
				if r.dropSet.Get(key) != nil {
					continue // already dropped in this bracket
				}
				v := r.acc.Get(key)
				if v == nil {
					continue // invalidation reached a key never derived
				}
				if r.bounded && r.Agg.Compare(v, t[r.Indep:]) == lattice.Greater {
					continue // strictly better support: the candidate does not attain v
				}
				dv, _ := r.dropSet.Upsert(key)
				copy(dv, v)
				copy(scratch, key)
				copy(scratch[r.Indep:], v)
				removed.Append(scratch)
			}
		}
	} else {
		// A set relation filters FULL by the sorted candidates, which leaves
		// Δ holding exactly what it dropped.
		canon := r.indexes[0]
		for _, words := range recv {
			canon.delta.Append(words)
		}
		r.setFresh = tuple.Buffer{Arity: r.Arity, Words: canon.apply(false)}
		removed = &r.setFresh
		for i := 0; r.deleting && i < removed.Len(); i++ {
			r.dropSet.Upsert(removed.At(i))
		}
	}

	// Phase B: every other index filters the drops out of FULL the same way,
	// and a local cache goes stale.
	r.toIndexes(removed)
	for _, ix := range r.indexes[r.maintained():] {
		ix.apply(false)
	}

	r.deltaCount = removed.Len()
	total := r.comm.Allreduce(uint64(removed.Len()), mpi.OpSum)
	r.changedLast = total
	r.invalidateDigestBaseline()
	return total
}
