package relation

import (
	"math/bits"
	"slices"

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

// routeHeader is the number of words in front of every routing lane: the
// sender's local Δ size and LocalFullCount as the pass begins.
const routeHeader = 2

// Unsettled is what ChangedLast reports until the global changed count of
// the most recent pass is agreed; above zero, it lets every gated variant run.
const Unsettled = ^uint64(0)

// Materialize is the fused deduplication/aggregation pass (§III-A): it
// routes this rank's newly generated tuples (canonical column order) to
// their canonical homes, merges them — set semantics deduplicate, aggregated
// relations lattice-join into the accumulator — computes the new Δ from the
// tuples whose merged value actually changed, and maintains every index
// (maintainIndexes: Δ becomes a sorted run of the changed tuples, and a
// local index of an aggregated relation lets FULL go stale). It returns the
// global number of changed tuples (identical on all ranks) and
// must be called collectively (even with empty pending, so that Δ versions
// flip). The count is agreed by one Allreduce (Settle); the fixpoint driver
// calls Advance instead and lets the next pass's routing headers carry it.
//
// When record is true the pass meters PhaseAllToAll (tuple routing) and
// PhaseLocalAgg (folding, merging, tree insertion and sorting Δ). An aggregated
// relation's records travel straight to their key's owner, whatever the
// sub-bucket count, so the pass has one tuple exchange.
func (r *Relation) Materialize(iter int, pending *tuple.Buffer, record bool) uint64 {
	r.Advance(iter, pending, record)
	r.Settle()
	return r.changedLast
}

// Settle agrees an Unsettled changed count now, with one Allreduce of the
// local Δ sizes. Collective: whether it communicates is the same everywhere.
func (r *Relation) Settle() {
	if r.changedLast == Unsettled {
		r.changedLast = r.comm.Allreduce(uint64(r.LocalDeltaCount()), mpi.OpSum)
	}
}

// Advance is Materialize for the fixpoint driver, without the closing
// agreement. Every routing lane opens with a routeHeader; Advance returns the
// summed Δ words, the global Δ size the relation entered the pass with — the
// previous pass's changed count. ChangedLast then reports Unsettled.
func (r *Relation) Advance(iter int, pending *tuple.Buffer, record bool) (entered uint64) {
	rank := r.comm.Rank()
	size := r.comm.Size()

	// Phase A: route new tuples to their canonical homes behind the header.
	// Δ versions from the previous iteration have been consumed by now;
	// their runs' storage is reused for this iteration's Δ. An aggregated
	// relation ships one ⊔-folded record per independent key (fold).
	r.placed = true
	delta, full := mpi.Word(r.LocalDeltaCount()), mpi.Word(r.LocalFullCount())
	for _, ix := range r.indexes {
		ix.resetDelta()
	}
	var rows tuple.Buffer
	if pending != nil {
		rows = *pending
	}
	if r.Agg != nil {
		timer := metrics.StartTimer()
		r.fold(rows.Words)
		if record {
			r.mc.Record(rank, iter, metrics.PhaseLocalAgg, timer.Done(r.folded, 0, 0))
		}
		r.folded = 0
		rows = tuple.Buffer{Arity: r.Arity, Words: r.partial.Words()}
	}
	n := rows.Len()
	timer := metrics.StartTimer()
	send := r.sendBuf(size)
	// Each lane is grown once, to a destination's expected share and an
	// eighth more: keys hash unevenly over destinations, and a lane that
	// outgrows its capacity is copied whole.
	for dest := range send {
		send[dest] = append(slices.Grow(send[dest], routeHeader+(n/size+n/size/8+1)*r.Arity), delta, full)
	}
	for i := 0; i < n; i++ {
		t := rows.At(i)
		dest := r.routeOf(t)
		send[dest] = append(send[dest], t...)
	}
	pre := r.comm.Meter()
	recv := r.comm.Alltoallv(send)
	if record {
		d := r.comm.Meter().Sub(pre)
		s := timer.Done(int64(n), int64(d.Bytes), int64(d.Calls))
		r.mc.Record(rank, iter, metrics.PhaseAllToAll, s)
	}
	if len(r.enteredCounts) != size {
		r.enteredCounts = make([]int, size)
	}
	for src, words := range recv {
		entered += words[0]
		r.enteredCounts[src] = int(words[1])
	}

	var fresh *tuple.Buffer
	var upkeep int64
	if r.Agg != nil {
		fresh, upkeep = r.materializeAgg(iter, recv, record)
	} else {
		fresh = r.materializeSet(iter, recv, record)
	}
	r.deltaCount = fresh.Len()
	r.maintainIndexes(iter, fresh, upkeep, record)
	if r.integrity {
		r.integrityAllreduce(iter, fresh, record)
	}
	r.changedLast = Unsettled
	return entered
}

// fold is the sender side of the fused aggregation: it ⊔-folds candidates
// into the fold table by independent key, on every full staged chunk and
// then on the rest (Advance), whose rows — one per key — are routed. The
// owner folds arrivals through ⊔ again, and ⊔ is associative and
// commutative, so merged values and Δ are those of routing every candidate
// (an MSum candidate is still added once). folded counts the candidates.
func (r *Relation) fold(cands []tuple.Value) {
	if r.partial == nil {
		r.partial = wordmap.New(r.Indep, r.Dep())
	}
	r.folded += int64(len(cands) / r.Arity)
	for ; len(cands) >= r.Arity; cands = cands[r.Arity:] {
		r.mergeDep(r.Agg, r.partial, cands[:r.Indep], cands[r.Indep:r.Arity])
	}
}

// stageChunk is the number of tuples a staged Candidates folds at once:
// 1,024 SSSP candidates (24 KB) stay in L1 from write to fold. On sssp-skew
// 256–4,096 are equally fast, and larger chunks only cost bytes.
const stageChunk = 1024

// Candidates is where rule kernels write one pass's head tuples (canonical
// order): Slot hands out a slot, DropLast takes back one a condition
// rejected. Plain, it keeps every candidate. Staged (an aggregated head),
// it is a chunk that Slot folds and empties whenever it is full.
type Candidates struct {
	tuple.Buffer
	rel    *Relation
	staged bool
}

// NewCandidates returns an empty, plain candidate buffer for r.
func NewCandidates(r *Relation) *Candidates {
	return &Candidates{Buffer: tuple.Buffer{Arity: r.Arity}, rel: r}
}

// Begin empties the buffer for a pass: staged if stage and r is aggregated.
func (c *Candidates) Begin(stage bool) {
	c.Reset()
	c.staged = stage && c.rel.Agg != nil
	if c.staged && cap(c.Words) < stageChunk*c.Arity {
		c.Words = make([]tuple.Value, 0, stageChunk*c.Arity)
	}
}

// Slot returns the next candidate's slot, folding a full staged chunk first.
func (c *Candidates) Slot() tuple.Tuple {
	if c.staged && len(c.Words) == stageChunk*c.Arity {
		c.rel.fold(c.Words)
		c.Reset()
	}
	return c.Extend()
}

// routeOf returns the rank a canonical-order tuple is routed to by the
// materialization exchange and by DeleteBatch: its owner, the canonical
// index's home for a set relation and the accumulator's for an aggregated
// one.
func (r *Relation) routeOf(t tuple.Tuple) int {
	if r.Agg == nil {
		return r.indexes[0].homeOf(t)
	}
	return r.accPlacement(t)
}

// materializeSet deduplicates arrived tuples against the canonical index:
// the arrivals are copied once, in arrival order, into Δ's run — a leaky
// relation prunes each against its partial bests on the way — and FULL takes
// the run (Index.apply), which leaves in Δ what FULL lacked: the pass's fresh
// tuples (setFresh), for the secondary indexes. Work units are the tree's
// (addWork), a duplicate charged a descent of FULL as it ends the pass.
func (r *Relation) materializeSet(iter int, recv [][]mpi.Word, record bool) *tuple.Buffer {
	timer := metrics.StartTimer()
	canon := r.indexes[0]
	held, total := canon.fullView().Len(), 0
	for _, words := range recv {
		total += len(words) - routeHeader
	}
	canon.delta.Grow(total / r.Arity)
	var work int64
	for _, words := range recv {
		if r.leaky == nil {
			canon.delta.Append(words[routeHeader:])
			continue
		}
		for off := routeHeader; off+r.Arity <= len(words); off += r.Arity {
			if t := tuple.Tuple(words[off : off+r.Arity]); r.leakyImproves(t) {
				canon.delta.Append(t)
			} else {
				work++
			}
		}
	}
	arrived := canon.delta.Len()
	r.setFresh = tuple.Buffer{Arity: r.Arity, Words: canon.apply(true)}
	added := r.setFresh.Len()
	work += addWork(held, added) + int64(arrived-added)*treeWork(held+added)
	if record {
		r.mc.Record(r.comm.Rank(), iter, metrics.PhaseLocalAgg, timer.Done(work, 0, 0))
	}
	return &r.setFresh
}

// addWork is the work units of adding n tuples one at a time to a FULL of
// held: the k-th takes a descent of a tree of held+k.
func addWork(held, n int) (work int64) {
	for k := 0; k < n; k++ {
		work += treeWork(held + k)
	}
	return work
}

// materializeAgg merges arrived tuples into the canonical accumulator: every
// record of a key arrives at the key's owner, so the ⊔ is rank-local and
// needs no second exchange. It returns the keys whose value changed (the
// relation's fresh buffer) and the work units the cost model charges one
// local index for them: what a tree kept in step with the accumulator would
// have cost, though the cache is only rebuilt when read (CatchUp).
func (r *Relation) materializeAgg(iter int, recv [][]mpi.Word, record bool) (*tuple.Buffer, int64) {
	timer := metrics.StartTimer()

	// Pre-aggregate what arrived here, keyed by independent columns, in the
	// table the sender fold is done with; Reset keeps its capacity.
	partial := r.partial
	partial.Reset()
	var work int64
	for _, words := range recv {
		for off := routeHeader; off+r.Arity <= len(words); off += r.Arity {
			t := tuple.Tuple(words[off : off+r.Arity])
			r.mergeDep(r.Agg, partial, t[:r.Indep], t[r.Indep:])
			work++
		}
	}

	// Merge partials into the accumulator; a key whose value strictly
	// changes (or is new) enters Δ — the ascending-chain condition. The
	// merged value is written into the accumulator arena in place.
	fresh := r.freshTuples()
	scratch := r.tupleScratch()
	var upkeep int64
	loading := r.acc.Len() == 0
	for e := 0; e < partial.Len(); e++ {
		indep, dep := partial.At(e)
		n := r.acc.Len()
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
		// A bulk load builds the tree bottom-up; otherwise a new key takes
		// one descent, and the model charges an improved one what purging
		// and re-inserting its stale entry cost.
		switch {
		case loading:
			upkeep += treeWork(fresh.Len())
		case inserted:
			upkeep += treeWork(n)
		default:
			upkeep += 2 * treeWork(n-1)
		}
		copy(scratch, indep)
		copy(scratch[r.Indep:], v)
		fresh.Append(scratch)
		work += 2
	}
	partial.Reset() // empty for the next pass's fold
	if record {
		r.mc.Record(r.comm.Rank(), iter, metrics.PhaseLocalAgg, timer.Done(work, 0, 0))
	}
	return fresh, upkeep
}

// maintained returns the first index Materialize maintains through
// toIndexes: a set relation's canonical index is maintained by
// deduplication, every index of an aggregated relation by its changed keys.
func (r *Relation) maintained() int {
	if r.Agg == nil {
		return 1
	}
	return 0
}

// Replicated reports whether Materialize runs the replica exchange: some
// index it maintains is not local. Indexes and placement are registered
// identically everywhere, so the answer is the same on every rank.
func (r *Relation) Replicated() bool {
	for _, ix := range r.indexes[r.maintained():] {
		if !ix.local {
			return true
		}
	}
	return false
}

// maintainIndexes puts changed tuples (canonical order) into every index
// that needs them (toIndexes) and has each take them as one batch
// (Index.apply): a local index's FULL goes stale, an empty FULL is filled,
// any other merges them — an aggregated relation's replica replacing the
// stale entry of each key. Work units are the tree's (addWork); a replica's
// replaced entry is charged what purging and re-inserting it cost, and each
// local index upkeep (materializeAgg).
func (r *Relation) maintainIndexes(iter int, fresh *tuple.Buffer, upkeep int64, record bool) {
	if len(r.indexes) == r.maintained() {
		return
	}
	timer := metrics.StartTimer()
	for _, ix := range r.indexes {
		if ix.local {
			ix.delta.Grow(fresh.Len()) // every changed key reaches it
		}
	}
	comm, replicated := r.toIndexes(fresh)
	var work int64
	for _, ix := range r.indexes[r.maintained():] {
		held, arrived := ix.fullView().Len(), ix.delta.Len()
		ix.apply(true)
		if ix.local {
			work += upkeep
			continue
		}
		added := ix.fullView().Len() - held
		work += addWork(held, added) + int64(arrived-added)*2*treeWork(held+added-1)
	}
	if record {
		phase := metrics.PhaseLocalAgg
		if replicated {
			phase = metrics.PhaseAllToAll
		}
		r.mc.Record(r.comm.Rank(), iter, phase, timer.Done(work, int64(comm.Bytes), int64(comm.Calls)))
	}
}

// toIndexes appends every tuple of buf (canonical order) to the Δ run of
// each index it maintains (maintained), in that index's stored order: on
// this rank for a local index, at the index's home over one replica exchange
// for any other. The exchange runs only when some index is not local, which
// is the same on every rank; toIndexes returns its traffic and whether it
// ran.
func (r *Relation) toIndexes(buf *tuple.Buffer) (comm mpi.Totals, replicated bool) {
	start := r.maintained()
	replicated = r.Replicated()
	var send [][]mpi.Word
	if replicated {
		send = r.sendBuf(r.comm.Size())
	}
	stored := r.permuteScratch()
	for i, n := 0, buf.Len(); i < n; i++ {
		t := buf.At(i)
		for id := start; id < len(r.indexes); id++ {
			ix := r.indexes[id]
			ix.permuteInto(t, stored)
			if ix.local {
				ix.delta.Append(stored)
				continue
			}
			dest := ix.homeOf(stored)
			send[dest] = append(send[dest], mpi.Word(id))
			send[dest] = append(send[dest], stored...)
		}
	}
	if !replicated {
		return comm, false
	}
	pre := r.comm.Meter()
	recv := r.comm.Alltoallv(send)
	comm = r.comm.Meter().Sub(pre)
	rec := 1 + r.Arity
	for _, words := range recv {
		for off := 0; off+rec <= len(words); off += rec {
			r.indexes[words[off]].delta.Append(words[off+1 : off+rec])
		}
	}
	return comm, true
}

// leakyImproves applies the baseline engines' per-rank partial pruning: a
// candidate survives only when its dependent value improves this rank's
// partial best for its independent key. Stale tuples kept earlier are not
// removed — that is the "leak" of §III-A.
func (r *Relation) leakyImproves(t tuple.Tuple) bool {
	return r.mergeDep(r.leaky.Agg, r.leakyBest, t[:r.leaky.Indep], t[r.leaky.Indep:])
}
