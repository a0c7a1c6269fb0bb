package relation

import (
	"paralagg/internal/btree"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// LoadFacts bulk-loads base facts through the normal materialization path:
// each rank contributes the slice of facts it "read" (canonical column
// order) and the pass routes, deduplicates/aggregates, and populates FULL
// and Δ so the first iteration sees the facts as freshly discovered.
// Loading is collective and unmetered (the paper's timings exclude input
// loading).
func (r *Relation) LoadFacts(facts *tuple.Buffer) uint64 {
	return r.Materialize(0, facts, false)
}

// LoadShare is a convenience for SPMD fact generation: emit is called with
// this rank's share of n facts — indices i with i % size == rank — and the
// produced tuples are loaded collectively. The generator must be
// deterministic so that every rank sees the same global fact set.
func (r *Relation) LoadShare(n int, gen func(i int, emit func(tuple.Tuple))) uint64 {
	buf := tuple.NewBuffer(r.Arity, n/r.comm.Size()+1)
	rank, size := r.comm.Rank(), r.comm.Size()
	for i := rank; i < n; i += size {
		gen(i, func(t tuple.Tuple) { buf.Append(t) })
	}
	return r.LoadFacts(buf)
}

// SetSubs changes the relation's sub-bucket count and redistributes every
// index shard and accumulator entry to its new home. This is the spatial
// rebalancing step (§IV-C, the "balancing" phase of Fig. 1); it is
// collective and must be called with the same value on every rank. The
// returned byte count is the total data this rank shipped.
//
// The word-keyed tables are tombstone-free, so redistribution rebuilds them:
// entries staying local seed a fresh table, leavers travel the exchange, and
// arrivals merge in. This is the one cold path that pays a table copy.
func (r *Relation) SetSubs(subs int) int {
	if subs < 1 {
		subs = 1
	}
	rank, size := r.comm.Rank(), r.comm.Size()
	shipped := 0
	r.subs = subs
	r.rebuildHomeCaches()

	// Redistribute accumulator entries (aggregated relations).
	if r.Agg != nil {
		send := r.sendBuf(size)
		newAcc := wordmap.NewWithCapacity(r.Indep, r.Dep(), r.acc.Len())
		r.acc.Each(func(indep, dep []tuple.Value) bool {
			dest := r.accPlacement(indep)
			if dest == rank {
				v, _ := newAcc.Upsert(indep)
				copy(v, dep)
				return true
			}
			send[dest] = append(send[dest], indep...)
			send[dest] = append(send[dest], dep...)
			shipped += r.Arity * mpi.WordBytes
			return true
		})
		for _, words := range r.comm.Alltoallv(send) {
			for off := 0; off+r.Arity <= len(words); off += r.Arity {
				t := tuple.Tuple(words[off : off+r.Arity])
				r.mergeDep(r.Agg, newAcc, t[:r.Indep], t[r.Indep:])
			}
		}
		r.acc = newAcc
	}

	// Redistribute each index's FULL and Δ trees.
	for _, ix := range r.indexes {
		shipped += ix.redistribute()
	}
	return shipped
}

// redistribute reshuffles one index's storage after a placement change: Δ
// first, into a tree of its own, as a view of FULL must move before FULL is
// rebuilt. Both exchanges run whatever the rank-local view flag says.
func (ix *Index) redistribute() int {
	delta := ix.Delta()
	ix.deltaIsFull = false
	return ix.reshuffle(delta, ix.delta) + ix.reshuffle(ix.Full, ix.Full)
}

// reshuffle sends src's tuples to their homes under the current placement
// and rebuilds dst from what this rank keeps and receives. It returns the
// bytes shipped.
func (ix *Index) reshuffle(src, dst *btree.Tree) int {
	r := ix.rel
	shipped := 0
	send := r.sendBuf(r.comm.Size())
	words := make([]tuple.Value, 0, src.Len()*r.Arity)
	src.Ascend(func(t tuple.Tuple) bool {
		dest := ix.homeOf(t)
		if dest == r.comm.Rank() {
			words = append(words, t...)
		} else {
			send[dest] = append(send[dest], t...)
			shipped += len(t) * mpi.WordBytes
		}
		return true
	})
	for _, lane := range r.comm.Alltoallv(send) {
		words = append(words, lane...)
	}
	r.rebuild(dst, words)
	return shipped
}

// rebuild replaces a tree's contents with the distinct tuples of words: one
// sort (skipped when the words already ascend, as a snapshot's do) and one
// bottom-up build, reusing the tree's nodes.
func (r *Relation) rebuild(tree *btree.Tree, words []tuple.Value) {
	tree.Reset()
	tree.Build(r.Arity, tuple.SortedRun(r.Arity, words, nil))
}
