package relation

import (
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// This file implements the deletion side of incremental maintenance: the
// serving engine's over-approximate invalidation drops candidate tuples
// batch by batch, leaving exactly the dropped tuples in Δ so the next
// invalidation round can chase their dependents, and finally rebuilds the
// accumulator without the dropped keys. The wordmap arena is append-only,
// so dropped aggregate keys are tracked in a side set (dropSet) during the
// bracket and compacted out in one pass at EndDelete.

// ClearDelta empties every index's Δ tree and zeroes the Δ and cached
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
// accumulator and every index's FULL and Δ trees are dropped. Rank-local;
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
	r.dropSet = nil
	for _, ix := range r.indexes {
		ix.Full.Reset()
		ix.resetDelta()
	}
	r.deltaCount = 0
	r.changedLast = 0
	r.invalidateDigestBaseline()
}

// ResetDelta re-seeds Δ with the relation's entire FULL contents, as a view
// (Index.Delta), and agrees its changed count, so a later stratum's rules
// see previously computed tuples as fresh. Collective.
func (r *Relation) ResetDelta() {
	for _, ix := range r.indexes {
		ix.resetDelta()
		ix.deltaIsFull = true
	}
	r.deltaCount = r.LocalFullCount()
	r.changedLast = r.GlobalFullCount()
}

// BeginDelete opens a deletion bracket. Between BeginDelete and EndDelete
// any number of DeleteBatch calls may run (the invalidation loop issues one
// per relation per round); the bracket-wide dropSet deduplicates candidates
// across rounds and defers the accumulator compaction to EndDelete. Set
// relations need no bracket state (their canonical tree deletes in place),
// but calling it uniformly on every relation is harmless and keeps the
// driver simple.
func (r *Relation) BeginDelete() {
	if r.Agg == nil {
		return
	}
	if r.dropSet == nil {
		r.dropSet = wordmap.New(r.Indep, r.Dep())
		return
	}
	r.dropSet.Reset()
}

// EndDelete closes a deletion bracket: for aggregated relations the
// accumulator is rebuilt without the dropped keys (the arena is
// append-only, so compaction is a copy of the survivors) and the digest
// baselines are invalidated so the next Materialize re-adopts them.
func (r *Relation) EndDelete() {
	if r.Agg == nil {
		return
	}
	ds := r.dropSet
	r.dropSet = nil
	if ds == nil || ds.Len() == 0 {
		return
	}
	fresh := wordmap.NewWithCapacity(r.Indep, r.Dep(), r.acc.Len())
	r.acc.Each(func(indep, dep []tuple.Value) bool {
		if ds.Get(indep) == nil {
			v, _ := fresh.Upsert(indep)
			copy(v, dep)
		}
		return true
	})
	r.acc = fresh
	r.invalidateDigestBaseline()
}

// DeleteBatch removes a batch of candidate tuples from the relation and
// seeds Δ with exactly the tuples actually dropped, so invalidation rounds
// can chase their dependents through the stratum's rules. It is collective
// and must be called on every rank (candidates may differ per rank; they
// are routed to their owners first). Candidates are canonical-order tuples;
// for aggregated relations only the independent prefix matters — the key is
// dropped whatever dependent value it currently holds (over-approximate
// invalidation). Candidates already dropped in this bracket, or not present
// at all, are skipped. Returns the global number of tuples dropped this
// call (identical on every rank) and caches it as the relation's changed
// count.
//
// Aggregated relations must be inside a BeginDelete/EndDelete bracket: the
// accumulator still holds dropped keys until EndDelete compacts it, so
// reads between batches must consult Δ/FULL (which this call maintains),
// not Lookup.
func (r *Relation) DeleteBatch(cands *tuple.Buffer) uint64 {
	size := r.comm.Size()

	// Δ from the previous round has been consumed; this round's Δ holds
	// exactly what this call drops.
	for _, ix := range r.indexes {
		ix.resetDelta()
	}
	if r.Agg != nil && r.dropSet == nil {
		r.BeginDelete()
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
	removed := r.freshTuples()
	if r.Agg != nil {
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
					continue // over-approximation reached a key never derived
				}
				dv, _ := r.dropSet.Upsert(key)
				copy(dv, v)
				copy(scratch, key)
				copy(scratch[r.Indep:], v)
				removed.Append(scratch)
			}
		}
	} else {
		canon := r.indexes[0]
		for _, words := range recv {
			for off := 0; off+r.Arity <= len(words); off += r.Arity {
				t := tuple.Tuple(words[off : off+r.Arity])
				if canon.Full.Delete(t) {
					canon.delta.Insert(t)
					removed.Append(t)
				}
			}
		}
	}

	// Phase B: delete the dropped tuples from every index that stores them
	// and seed those indexes' Δ trees, exactly as maintainIndexes inserts.
	r.toIndexes(removed, func(id int, stored tuple.Tuple) {
		if ix := r.indexes[id]; ix.Full.Delete(stored) {
			ix.delta.Insert(stored)
		}
	})

	r.deltaCount = removed.Len()
	total := r.comm.Allreduce(uint64(removed.Len()), mpi.OpSum)
	r.changedLast = total
	r.invalidateDigestBaseline()
	return total
}
