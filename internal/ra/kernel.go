// Package ra implements the parallel relational-algebra kernels of the
// paper: the BPRA-style binary join with intra-bucket communication and
// per-iteration dynamic join planning (Algorithm 1), copy/projection
// kernels, and the semi-naïve fixpoint driver that ties them together.
package ra

import (
	"math/bits"
	"time"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/obs"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// Version selects which relation version a kernel side reads.
type Version int

// The semi-naïve relation versions. VFullMinusDelta reads FULL while
// skipping tuples present in Δ; pairing it with the other side's Δ makes
// the two join variants exactly disjoint, so every (left, right) pair is
// delivered exactly once — which non-idempotent aggregates (MSum, MCount)
// require.
const (
	VFull Version = iota
	VDelta
	VFullMinusDelta
)

// versionLen returns the number of tuples the version exposes on this rank.
func versionLen(ix *relation.Index, v Version) int {
	switch v {
	case VDelta:
		return ix.Delta.Len()
	case VFullMinusDelta:
		n := ix.Full.Len() - ix.Delta.Len()
		if n < 0 {
			n = 0
		}
		return n
	}
	return ix.Full.Len()
}

// scanVersion iterates the version's tuples in order.
func scanVersion(ix *relation.Index, v Version, fn func(tuple.Tuple) bool) {
	switch v {
	case VDelta:
		ix.Delta.Ascend(fn)
	case VFullMinusDelta:
		ix.Full.Ascend(func(t tuple.Tuple) bool {
			if ix.Delta.Len() > 0 && ix.Delta.Has(t) {
				return true
			}
			return fn(t)
		})
	default:
		ix.Full.Ascend(fn)
	}
}

// probeVersion scans the version's tuples matching the join-key prefix.
func probeVersion(ix *relation.Index, v Version, prefix tuple.Tuple, fn func(tuple.Tuple) bool) {
	switch v {
	case VDelta:
		ix.Delta.AscendPrefix(prefix, fn)
	case VFullMinusDelta:
		ix.Full.AscendPrefix(prefix, func(t tuple.Tuple) bool {
			if ix.Delta.Len() > 0 && ix.Delta.Has(t) {
				return true
			}
			return fn(t)
		})
	default:
		ix.Full.AscendPrefix(prefix, fn)
	}
}

// PlanMode selects how the join's outer relation is chosen.
type PlanMode int

// Planning modes. PlanDynamic is the paper's voting algorithm; the static
// modes pin the outer side (the baseline of Fig. 2 uses PlanStaticRight);
// PlanAntiDynamic inverts the vote and exists for the ablation study.
const (
	PlanDynamic PlanMode = iota
	PlanStaticLeft
	PlanStaticRight
	PlanAntiDynamic
)

// Emitter derives the head tuple of a matched pair of stored-order body
// tuples. The kernel supplies out — the next slot of its pending buffer, at
// the head relation's arity, contents unspecified — and the emitter writes
// every column of it in the head's canonical order and reports true, or
// reports false to filter the pair (σ). All three tuples are views that
// die with the call.
type Emitter func(left, right, out tuple.Tuple) bool

// Join is a compiled binary-join kernel: Left ⋈ Right on their shared JK
// leading columns, writing into Head.
type Join struct {
	Name        string
	Left, Right *relation.Index
	LeftRel     *relation.Relation
	RightRel    *relation.Relation
	Head        *relation.Relation
	JK          int
	Emit        Emitter

	// sendScratch holds the per-destination replication buffers, reused
	// across variants and iterations (rank-private, like the Join itself).
	sendScratch [][]mpi.Word
}

// sendBuf returns the per-destination buffers with every lane emptied.
func (j *Join) sendBuf(size int) [][]mpi.Word {
	if cap(j.sendScratch) < size {
		j.sendScratch = make([][]mpi.Word, size)
	}
	j.sendScratch = j.sendScratch[:size]
	for i := range j.sendScratch {
		j.sendScratch[i] = j.sendScratch[i][:0]
	}
	return j.sendScratch
}

// nonEmptyLanes counts destinations that will actually receive data; it is
// the per-rank message count an Alltoallv costs.
func nonEmptyLanes(send [][]mpi.Word, self int) int64 {
	n := int64(0)
	for i, s := range send {
		if i != self && len(s) > 0 {
			n++
		}
	}
	return n
}

// Run executes one variant of the join — versions vl and vr select the
// semi-naïve sides — and appends head tuples to pending. It is collective
// unless the join is co-partitioned, in which case it is rank-local.
//
// Phases, as in Fig. 1: dynamic join planning (a one-word vote per rank,
// Algorithm 1), intra-bucket communication (the outer relation's selected
// version is serialized and replicated to the inner's sub-bucket homes),
// and the highly parallel local join (received outer tuples probe the
// inner B-tree). A co-partitioned join (relation.CoPartitioned: every
// join-key bucket on one rank, the same rank on both sides) has nothing to
// replicate, so it skips the vote and the exchange: each rank picks its
// outer side from its own sizes and probes with its own tuples.
func (j *Join) Run(iter int, vl, vr Version, mode PlanMode, mc *metrics.Collector, pending *tuple.Buffer) {
	comm := j.LeftRel.Comm()
	rank, size := comm.Rank(), comm.Size()
	local := relation.CoPartitioned(j.Left, j.Right, j.JK)

	// Dynamic join planning (Algorithm 1): each rank votes with one word;
	// an Allreduce tallies. If a majority finds the left side smaller, the
	// left relation is serialized (outer). A co-partitioned join's tally is
	// its own vote.
	outerIsLeft := false
	switch mode {
	case PlanStaticLeft:
		outerIsLeft = true
	case PlanStaticRight:
		outerIsLeft = false
	case PlanDynamic, PlanAntiDynamic:
		timer := metrics.StartTimer()
		localOuter := uint64(0)
		if versionLen(j.Left, vl) < versionLen(j.Right, vr) {
			localOuter = 1
		}
		ranksWantLeft := localOuter
		outerIsLeft = localOuter == 1
		var voteBytes, voteMsgs int64
		if !local {
			ranksWantLeft = comm.Allreduce(localOuter, mpi.OpSum)
			outerIsLeft = ranksWantLeft >= uint64((size+1)/2)
			voteBytes, voteMsgs = mpi.WordBytes, int64(comm.ScheduleDepth())
		}
		if mode == PlanAntiDynamic {
			outerIsLeft = !outerIsLeft
		}
		mc.Record(rank, iter, metrics.PhasePlanning, timer.Done(1, voteBytes, voteMsgs))
		if o := mc.Observer(); o != nil {
			e := obs.Get()
			e.Kind = obs.KindPlan
			e.Rank, e.Stratum, e.Iter = rank, mc.Stratum(), iter
			e.Name = j.Name
			e.VotesFor, e.OuterLeft = ranksWantLeft, outerIsLeft
			e.End = time.Now().UnixNano()
			obs.Emit(o, e)
		}
	}

	outerIx, innerIx := j.Left, j.Right
	outerV, innerV := vl, vr
	if !outerIsLeft {
		outerIx, innerIx = j.Right, j.Left
		outerV, innerV = vr, vl
	}

	// Intra-bucket communication: serialize the outer version and
	// replicate each tuple to every rank holding a sub-bucket of the
	// inner's matching bucket. Co-partitioned, every tuple's one home is
	// this rank: the scan is still charged as work, but nothing moves.
	timer := metrics.StartTimer()
	send := j.sendBuf(size)
	scanned := int64(0)
	scanVersion(outerIx, outerV, func(t tuple.Tuple) bool {
		scanned++
		if local {
			send[rank] = append(send[rank], t...)
			return true
		}
		b := int(t.HashPrefix(j.JK) % uint64(size))
		for _, dest := range innerIx.HomeRanks(b) {
			send[dest] = append(send[dest], t...)
		}
		return true
	})
	recv := send
	var exchBytes, exchMsgs int64
	if !local {
		pre := comm.Stats().Snapshot()
		recv = comm.Alltoallv(send)
		exchBytes, exchMsgs = int64(comm.Stats().Snapshot().Sub(pre).Bytes), nonEmptyLanes(send, rank)+1
	}
	mc.Record(rank, iter, metrics.PhaseIntraBucket, timer.Done(scanned, exchBytes, exchMsgs))

	// Local join: probe the inner B-tree with each received outer tuple.
	timer = metrics.StartTimer()
	var work int64
	arity := len(outerIx.Perm)
	innerLen := versionLen(innerIx, innerV)
	for _, words := range recv {
		for off := 0; off+arity <= len(words); off += arity {
			t := tuple.Tuple(words[off : off+arity])
			work += int64(bits.Len64(uint64(innerLen)) + 1)
			probeVersion(innerIx, innerV, t[:j.JK], func(match tuple.Tuple) bool {
				work++
				l, r := t, match
				if !outerIsLeft {
					l, r = match, t
				}
				if !j.Emit(l, r, pending.Extend()) {
					pending.DropLast()
				}
				return true
			})
		}
	}
	mc.Record(rank, iter, metrics.PhaseLocalJoin, timer.Done(work, 0, 0))
}

// CopyEmitter is Emitter for a single stored-order source tuple.
type CopyEmitter func(src, out tuple.Tuple) bool

// Copy is a compiled single-atom rule (projection/selection/arithmetic): it
// scans the source index's Δ and emits head tuples. It is rank-local — the
// routing cost is paid at materialization, as in the paper.
type Copy struct {
	Name   string
	Src    *relation.Index
	SrcRel *relation.Relation
	Head   *relation.Relation
	Emit   CopyEmitter
}

// Run scans Δ of the source and appends head tuples to pending.
func (cp *Copy) Run(iter int, mc *metrics.Collector, pending *tuple.Buffer) {
	comm := cp.SrcRel.Comm()
	timer := metrics.StartTimer()
	var work int64
	cp.Src.Delta.Ascend(func(t tuple.Tuple) bool {
		work++
		if !cp.Emit(t, pending.Extend()) {
			pending.DropLast()
		}
		return true
	})
	mc.Record(comm.Rank(), iter, metrics.PhaseLocalJoin, timer.Done(work, 0, 0))
}
