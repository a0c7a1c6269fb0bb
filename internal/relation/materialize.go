package relation

import (
	"math/bits"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// treeWork estimates the work units of one B-tree operation on a tree of n
// tuples: the O(log n) descent the paper credits the inner relation with.
func treeWork(n int) int64 { return int64(bits.Len64(uint64(n)) + 1) }

// freshTuples returns the relation's reusable changed-tuple buffer, emptied.
func (r *Relation) freshTuples() *tuple.Buffer {
	if r.freshBuf == nil {
		r.freshBuf = tuple.NewBuffer(r.Arity, 64)
	}
	r.freshBuf.Reset()
	return r.freshBuf
}

// tupleScratch returns a reusable canonical-order tuple.
func (r *Relation) tupleScratch() tuple.Tuple {
	if r.tupScratch == nil {
		r.tupScratch = make(tuple.Tuple, r.Arity)
	}
	return r.tupScratch
}

// permuteScratch returns a reusable stored-order tuple.
func (r *Relation) permuteScratch() tuple.Tuple {
	if r.permScratch == nil {
		r.permScratch = make(tuple.Tuple, r.Arity)
	}
	return r.permScratch
}

// Materialize is the fused deduplication/aggregation pass (§III-A): it
// routes this rank's newly generated tuples (canonical column order) to
// their canonical homes, merges them — set semantics deduplicate, aggregated
// relations lattice-join into the accumulator — computes the new Δ from the
// tuples whose merged value actually changed, and maintains every index
// replica. It returns the global number of changed tuples (identical on all
// ranks) and must be called collectively, after all rules of the iteration
// have run, for every relation of the stratum (even with empty pending, so
// that Δ versions flip). The agreement on that count rides the replica
// exchange's lane headers (maintainIndexes); only a relation with no replica
// to maintain, or one checking Integrity, pays an Allreduce for it.
//
// When record is true the pass meters PhaseAllToAll (tuple routing),
// PhaseLocalAgg (merging and tree insertion), and PhaseOther (the extra
// intra-bucket gather that balanced aggregation requires, §IV-C).
func (r *Relation) Materialize(iter int, pending *tuple.Buffer, record bool) uint64 {
	rank := r.comm.Rank()
	size := r.comm.Size()

	// Δ versions from the previous iteration have been consumed by now;
	// reuse their node storage for this iteration's Δ.
	for _, ix := range r.indexes {
		ix.Delta.Reset()
	}

	// Phase A: route new tuples to their canonical homes.
	timer := metrics.StartTimer()
	send := r.sendBuf(size)
	n := 0
	if pending != nil {
		n = pending.Len()
	}
	for i := 0; i < n; i++ {
		t := pending.At(i)
		var dest int
		if r.Agg != nil {
			b := int(t.HashPrefix(r.Indep) % uint64(size))
			if r.subs > 1 {
				// Scatter across the bucket's sub-buckets by dependent
				// value to balance merge work; a second intra-bucket hop
				// gathers partials to the owner below.
				s := int(tuple.Tuple(t[r.Indep:]).Hash() % uint64(r.subs))
				dest = r.rankOf(b, s)
			} else {
				dest = r.rankOf(b, 0)
			}
		} else {
			ix := r.indexes[0]
			dest = r.rankOf(ix.bucketOf(t), ix.subOf(t))
		}
		send[dest] = append(send[dest], t...)
	}
	pre := r.comm.Stats().Snapshot()
	recv := r.comm.Alltoallv(send)
	if record {
		d := r.comm.Stats().Snapshot().Sub(pre)
		s := timer.Done(int64(n), int64(d.Bytes), int64(d.Calls))
		r.mc.Record(rank, iter, metrics.PhaseAllToAll, s)
	}

	var fresh *tuple.Buffer
	if r.Agg != nil {
		fresh = r.materializeAgg(iter, recv, record)
	} else {
		fresh = r.materializeSet(iter, recv, record)
	}
	changedLocal := uint64(fresh.Len())
	total, summed := r.maintainIndexes(iter, fresh, record)
	switch {
	case r.integrity:
		// The state digests need the post-exchange replicas, so they take
		// an agreement round of their own: the changed count plus five
		// digest words, and every rank verifies the global invariants
		// before trusting the result.
		total = r.integrityAllreduce(iter, changedLocal, record)
	case !summed:
		total = r.comm.Allreduce(changedLocal, mpi.OpSum)
	}
	r.changedLast = total
	return total
}

// materializeSet deduplicates arrived tuples against the canonical index,
// inserts survivors into FULL and Δ locally, and returns them (the
// relation's fresh buffer) for the secondary indexes.
func (r *Relation) materializeSet(iter int, recv [][]mpi.Word, record bool) *tuple.Buffer {
	rank := r.comm.Rank()
	timer := metrics.StartTimer()
	canon := r.indexes[0]
	var work int64
	fresh := r.freshTuples()
	if canon.Full.Len() == 0 {
		work = r.loadSet(recv, fresh)
	} else {
		for _, words := range recv {
			for off := 0; off+r.Arity <= len(words); off += r.Arity {
				t := tuple.Tuple(words[off : off+r.Arity])
				if r.leaky != nil && !r.leakyImproves(t) {
					work++
					continue
				}
				work += treeWork(canon.Full.Len())
				if canon.Full.Insert(t) {
					canon.Delta.Insert(t)
					r.assignID(t)
					fresh.Append(t)
				}
			}
		}
	}
	if record {
		r.mc.Record(rank, iter, metrics.PhaseLocalAgg, timer.Done(work, 0, 0))
	}
	return fresh
}

// loadSet is materializeSet's deduplication for an empty canonical index —
// an initial load, or a reload after Clear: the batch is sorted once
// and FULL and Δ are both built bottom-up from that run instead of taking
// one descent per tuple each. Ids, fresh and the work units come out as the
// per-tuple path would have produced them: survivors are the first arrival
// of each distinct tuple, taken in arrival order, and every arrival is
// charged a descent of the tree as large as it would have been by then.
func (r *Relation) loadSet(recv [][]mpi.Word, fresh *tuple.Buffer) (work int64) {
	var cands []tuple.Value
	for _, words := range recv {
		for off := 0; off+r.Arity <= len(words); off += r.Arity {
			t := words[off : off+r.Arity]
			if r.leaky != nil && !r.leakyImproves(t) {
				work++
				continue
			}
			cands = append(cands, t...)
		}
	}
	if len(cands) == 0 {
		return work
	}
	first := make([]bool, len(cands)/r.Arity)
	r.indexes[0].load(cands, first)
	size := 0
	for i, keep := range first {
		work += treeWork(size)
		if keep {
			size++
			t := tuple.Tuple(cands[i*r.Arity : (i+1)*r.Arity])
			r.assignID(t)
			fresh.Append(t)
		}
	}
	return work
}

// load fills an index whose FULL and Δ are both empty from one batch of
// stored-order tuples: one sort, and both trees built bottom-up from the
// same run. first, when non-nil, receives tuple.SortedRun's first-arrival
// flags.
func (ix *Index) load(words []tuple.Value, first []bool) {
	arity := len(ix.Perm)
	run := tuple.SortedRun(arity, words, first)
	ix.Full.Build(arity, run)
	ix.Delta.Build(arity, run)
}

// materializeAgg merges arrived tuples into the canonical accumulator. With
// sub-bucketing it first pre-aggregates at the scatter target and gathers
// partials to the bucket owner over a second intra-bucket exchange, which is
// the "Other" overhead the paper observes at high rank counts (Fig. 6). It
// returns the keys whose value changed (the relation's fresh buffer).
func (r *Relation) materializeAgg(iter int, recv [][]mpi.Word, record bool) *tuple.Buffer {
	rank := r.comm.Rank()
	size := r.comm.Size()
	timer := metrics.StartTimer()

	// Pre-aggregate what arrived here, keyed by independent columns. The
	// table and its arena persist across iterations; Reset keeps capacity.
	if r.partial == nil {
		r.partial = wordmap.New(r.Indep, r.Dep())
	}
	partial := r.partial
	partial.Reset()
	var work int64
	for _, words := range recv {
		for off := 0; off+r.Arity <= len(words); off += r.Arity {
			t := tuple.Tuple(words[off : off+r.Arity])
			r.mergeDep(r.Agg, partial, t[:r.Indep], t[r.Indep:])
			work++
		}
	}

	if r.subs > 1 {
		// Intra-bucket gather: partials travel to the bucket owner
		// (sub-bucket 0).
		if record {
			r.mc.Record(rank, iter, metrics.PhaseLocalAgg, timer.Done(work, 0, 0))
		}
		gatherTimer := metrics.StartTimer()
		send := r.sendBuf(size)
		for e := 0; e < partial.Len(); e++ {
			indep, dep := partial.At(e)
			dest := r.accPlacement(indep)
			send[dest] = append(send[dest], indep...)
			send[dest] = append(send[dest], dep...)
		}
		sent := partial.Len()
		pre := r.comm.Stats().Snapshot()
		recv2 := r.comm.Alltoallv(send)
		if record {
			d := r.comm.Stats().Snapshot().Sub(pre)
			s := gatherTimer.Done(int64(sent), int64(d.Bytes), int64(d.Calls))
			r.mc.Record(rank, iter, metrics.PhaseOther, s)
		}
		timer = metrics.StartTimer()
		work = 0
		partial.Reset()
		for _, words := range recv2 {
			for off := 0; off+r.Arity <= len(words); off += r.Arity {
				t := tuple.Tuple(words[off : off+r.Arity])
				r.mergeDep(r.Agg, partial, t[:r.Indep], t[r.Indep:])
				work++
			}
		}
	}

	// Merge partials into the accumulator; a key whose value strictly
	// changes (or is new) enters Δ — the ascending-chain condition. The
	// merged value is written into the accumulator arena in place.
	fresh := r.freshTuples()
	scratch := r.tupleScratch()
	for e := 0; e < partial.Len(); e++ {
		indep, dep := partial.At(e)
		v, inserted := r.acc.Upsert(indep)
		if inserted {
			copy(v, dep)
			if r.integrity {
				r.accDig += digestWords(digestWords(digestSeed, indep), v)
			}
		} else {
			merged := r.Agg.Join(v, dep)
			if r.Agg.Compare(merged, v) == lattice.Equal {
				work++
				continue
			}
			// Keep the running digest in step with the arena: retire the old
			// value's contribution before it is overwritten.
			if r.integrity {
				r.accDig -= digestWords(digestWords(digestSeed, indep), v)
			}
			copy(v, merged)
			if r.integrity {
				r.accDig += digestWords(digestWords(digestSeed, indep), v)
			}
		}
		r.assignID(indep)
		copy(scratch, indep)
		copy(scratch[r.Indep:], v)
		fresh.Append(scratch)
		work += 2
	}
	if record {
		r.mc.Record(rank, iter, metrics.PhaseLocalAgg, timer.Done(work, 0, 0))
	}
	return fresh
}

// laneHeader is the number of words in front of every replica-exchange
// lane: the sender's changed count, then its canonical LocalFullCount.
const laneHeader = 2

// replicated reports whether Materialize has replicas to maintain, i.e.
// whether it runs the replica exchange. Indexes are registered identically
// everywhere, so the answer is the same on every rank.
func (r *Relation) replicated() bool { return r.Agg != nil || len(r.indexes) > 1 }

// maintainIndexes routes changed tuples (canonical order) to every index
// home that needs them and applies them: set relations insert, aggregated
// relations replace the stale entry for the key. For set relations the
// canonical index was already updated during deduplication and is skipped.
//
// Every lane, empty or not, opens with a laneHeader: this rank's changed
// count and canonical LocalFullCount. Summing the received changed counts
// (this rank's own lane included) gives every rank the same global total, so
// the exchange doubles as the convergence agreement, and the counts are kept
// for RankCounts. A relation with nothing to replicate exchanges nothing and
// returns summed false.
func (r *Relation) maintainIndexes(iter int, fresh *tuple.Buffer, record bool) (total uint64, summed bool) {
	if !r.replicated() {
		return 0, false
	}
	rank := r.comm.Rank()
	size := r.comm.Size()
	start := 0
	if r.Agg == nil {
		start = 1
	}
	timer := metrics.StartTimer()
	send := r.sendBuf(size)
	for dest := range send {
		send[dest] = append(send[dest], mpi.Word(fresh.Len()), mpi.Word(r.LocalFullCount()))
	}
	stored := r.permuteScratch()
	for i, nf := 0, fresh.Len(); i < nf; i++ {
		t := fresh.At(i)
		for id := start; id < len(r.indexes); id++ {
			ix := r.indexes[id]
			ix.permuteInto(t, stored)
			dest := r.rankOf(ix.bucketOf(stored), ix.subOf(stored))
			send[dest] = append(send[dest], mpi.Word(id))
			send[dest] = append(send[dest], stored...)
		}
	}
	pre := r.comm.Stats().Snapshot()
	recv := r.comm.Alltoallv(send)
	commDelta := r.comm.Stats().Snapshot().Sub(pre)

	// An index whose FULL is still empty (an initial load) collects its
	// whole batch and is built bottom-up below; fresh tuples are distinct,
	// so every one of them grows the tree it lands in.
	var work int64
	rec := 1 + r.Arity
	var loads [][]tuple.Value
	if len(r.laneCounts) != size {
		r.laneCounts = make([]int, size)
	}
	for src, words := range recv {
		total += words[0]
		r.laneCounts[src] = int(words[1])
		for off := laneHeader; off+rec <= len(words); off += rec {
			id := int(words[off])
			arrived := tuple.Tuple(words[off+1 : off+rec])
			ix := r.indexes[id]
			n := ix.Full.Len()
			switch {
			case n == 0:
				if loads == nil {
					loads = make([][]tuple.Value, len(r.indexes))
				}
				work += treeWork(len(loads[id]) / r.Arity)
				loads[id] = append(loads[id], arrived...)
				continue
			case r.Agg == nil:
				work += treeWork(n)
				ix.Full.Insert(arrived)
			case ix.Full.UpsertPrefix(ix.indepLen, arrived):
				// The independent prefix locates the key's one entry, so the
				// improved value overwrote the stale one where it stood. The
				// model still charges what purging and re-inserting it cost.
				work += 2 * treeWork(n-1)
			default:
				work += treeWork(n)
			}
			ix.Delta.Insert(arrived)
		}
	}
	for id, words := range loads {
		if len(words) > 0 {
			r.indexes[id].load(words, nil)
		}
	}
	if record {
		s := timer.Done(work, int64(commDelta.Bytes), int64(commDelta.Calls))
		r.mc.Record(rank, iter, metrics.PhaseAllToAll, s)
	}
	return total, true
}

// leakyImproves applies the baseline engines' per-rank partial pruning: a
// candidate survives only when its dependent value improves this rank's
// partial best for its independent key. Stale tuples kept earlier are not
// removed — that is the "leak" of §III-A.
func (r *Relation) leakyImproves(t tuple.Tuple) bool {
	return r.mergeDep(r.leaky.Agg, r.leakyBest, t[:r.leaky.Indep], t[r.leaky.Indep:])
}
