package mpi

import "fmt"

// Collectives: the runtime's whole public exchange surface. On every world a
// collective is the same three steps: pass the fault gate (enter), meter the
// operation's logical payload once, then exchange point-to-point hops in the
// shape the world's ScheduleKind selects (schedule.go) — the flat star
// through rank 0 or a topology-aware binomial tree rooted there — over
// whatever Transport the world runs on: mailboxes between goroutines,
// sockets between processes. The exchange primitives and the tag discipline
// are in p2pcoll.go. Collectives are matched by arrival
// order, exactly as in MPI: every rank must call the same collective in the
// same sequence. A one-rank world has nobody to exchange with and returns
// right after metering (the hot-path allocation pins rely on that).

// Barrier blocks until every rank in the world has called it.
func (c *Comm) Barrier() { c.barrierVia(c.sched) }

// barrierVia is Barrier with an explicit schedule: the checkpoint path
// (CheckpointBarrier) forces the flat star regardless of the world's
// schedule because the wire-mark cut argument depends on its shape.
func (c *Comm) barrierVia(kind ScheduleKind) {
	c.enter("barrier")
	c.world.stats.addCollective(c.rank, collBarrier, 0)
	// A barrier is a reduction of nothing: the way up establishes that every
	// rank arrived, the way down releases them.
	c.reduceAndFan(kind, "barrier", tagBarrier, nil, OpSum)
}

// ReduceOp is a binary reduction used by Allreduce.
type ReduceOp int

// The reduction operators the runtime supports, mirroring MPI_SUM and
// friends.
const (
	OpSum ReduceOp = iota
	OpMax
	OpMin
)

func (op ReduceOp) apply(a, b uint64) uint64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if a > b {
			return a
		}
		return b
	case OpMin:
		if a < b {
			return a
		}
		return b
	}
	panic(fmt.Sprintf("mpi: unknown reduce op %d", int(op)))
}

// Allreduce combines one word from each rank with op and returns the result
// to all ranks. This is the paper's join-order voting primitive
// (Algorithm 1): a single small word per rank, latency-bound.
func (c *Comm) Allreduce(v uint64, op ReduceOp) uint64 {
	c.enter("allreduce")
	c.world.stats.addCollective(c.rank, collAllreduce, WordBytes)
	c.word[0] = v
	c.reduceAndFan(c.sched, "allreduce", tagAllreduce, c.word[:], op)
	return c.word[0]
}

// AllreduceVec combines equal-length word vectors from every rank
// elementwise with op and writes the agreed result into recv, which must
// have the same length as send (the two may alias). It returns recv.
//
// The point of the vector form is piggybacking: the integrity layer rides
// its per-relation state digests on the same agreement round the
// convergence count uses, so online divergence detection costs no extra
// collective. One round regardless of vector length.
func (c *Comm) AllreduceVec(send, recv []Word, op ReduceOp) []Word {
	c.enter("allreducevec")
	if len(send) != len(recv) {
		panic(fmt.Sprintf("mpi: allreducevec on rank %d: send %d words, recv %d",
			c.rank, len(send), len(recv)))
	}
	c.world.stats.addCollective(c.rank, collAllreduceVec, len(send)*WordBytes)
	copy(recv, send)
	c.reduceAndFan(c.sched, "allreducevec", tagAllreduceVec, recv, op)
	return recv
}

// reduceAndFan reduces buf elementwise across every rank, in place: up the
// flat star or the tree to rank 0, folding contributions in as they arrive,
// then back down. The tree's combine order differs from the star's, but
// every ReduceOp is associative and commutative over uint64, so the result
// is bit-identical.
func (c *Comm) reduceAndFan(kind ScheduleKind, name string, tag int, buf []Word, op ReduceOp) {
	if c.world.size == 1 {
		return
	}
	if kind == ScheduleFlat {
		if c.rank != 0 {
			c.collSend(name, 0, tag, buf)
		} else {
			for r := 1; r < c.world.size; r++ {
				c.fold(buf, c.collRecv(name, r, tag), op)
			}
		}
	} else {
		t := c.rootTree()
		for _, ch := range t.children {
			c.fold(buf, c.collRecv(name, ch, tag), op)
		}
		if t.parent >= 0 {
			c.collSend(name, t.parent, tag, buf)
		}
	}
	// Rank 0 gets buf itself back; everyone else a received copy.
	if agreed := c.fanFrom0(kind, name, tag, buf); c.rank != 0 {
		copy(buf, agreed)
		c.release(agreed)
	}
}

// fold reduces one received contribution into acc elementwise and releases
// it.
func (c *Comm) fold(acc, w []Word, op ReduceOp) {
	if len(w) != len(acc) {
		panic(fmt.Sprintf("mpi: %d-word contribution to a %d-word reduction", len(w), len(acc)))
	}
	for i := range acc {
		acc[i] = op.apply(acc[i], w[i])
	}
	c.release(w)
}

// Allgather collects one word from each rank and returns the full vector,
// indexed by rank, to every rank.
func (c *Comm) Allgather(v uint64) []uint64 {
	c.enter("allgather")
	c.world.stats.addCollective(c.rank, collAllgather, WordBytes)
	if c.world.size == 1 {
		return []uint64{v}
	}
	contribs := c.gatherTo0(c.sched, "allgather", tagAllgather, []Word{v})
	var vec []Word
	if contribs != nil {
		vec = make([]Word, c.world.size)
		for r, w := range contribs {
			vec[r] = w[0]
		}
		c.gathered(c.sched, contribs)
	}
	// Every non-root rank's copy is private (it crossed the wire); rank 0
	// built vec itself.
	return c.fanFrom0(c.sched, "allgather", tagAllgather, vec)
}

// Alltoallv performs the personalized all-to-all exchange at the heart of
// tuple redistribution: send[j] goes to rank j; the return value's entry i
// holds the words received from rank i. The diagonal (self) transfer is
// local and not metered.
//
// Ownership: the result is this rank's receive buffer, valid until its next
// Alltoallv call — consume it before calling again, as a real MPI receive
// buffer would require. That call recycles all of it: the outer slice, the
// diagonal row (handed off from send, so it is whatever the caller does with
// its send buffer), and the off-diagonal rows, which go back to the rank's
// mailbox to carry the next messages sent here (mem.go states the whole
// buffer-lifetime rule). send stays the caller's throughout.
func (c *Comm) Alltoallv(send [][]Word) [][]Word {
	c.enter("alltoallv")
	size := c.world.size
	if len(send) != size {
		panic(fmt.Sprintf("mpi: alltoallv on rank %d: %d destination slots in world of %d",
			c.rank, len(send), size))
	}
	bytes := 0
	for j, s := range send {
		if j != c.rank {
			bytes += len(s) * WordBytes
		}
	}
	c.world.stats.addCollective(c.rank, collAlltoallv, bytes)
	recv := c.recvHeader(size)
	if &recv[0] == &send[0] {
		// The caller fed the previous result straight back in. The exchange
		// reads send while it fills recv, so they must not share a header —
		// and the previous rows are this call's payload, not yet free.
		recv = make([][]Word, size)
		c.recvRows = recv
	} else {
		for i, row := range recv {
			if i != c.rank {
				c.release(row)
				recv[i] = nil
			}
		}
	}
	recv[c.rank] = send[c.rank] // local hand-off, owner on both ends
	if c.sched == ScheduleFlat {
		for j, s := range send {
			if j != c.rank {
				c.collSend("alltoallv", j, tagAlltoallv, s)
			}
		}
		for i := range recv {
			if i != c.rank {
				recv[i] = c.collRecv("alltoallv", i, tagAlltoallv)
			}
		}
		return recv
	}
	// Stepped pairwise exchange: step s pairs each rank with (rank+s) out
	// and (rank-s) in, so at most one message per rank is outstanding per
	// step instead of P-1 — the personalized payloads cannot be combined,
	// so a tree would only add forwarding bytes. Per-pair payloads are
	// identical to the flat schedule's, which is what keeps replay-based
	// hot replacement content-deterministic per (src, dst) stream.
	for s := 1; s < size; s++ {
		dst := (c.rank + s) % size
		src := (c.rank - s + size) % size
		c.collSend("alltoallv", dst, tagAlltoallv, send[dst])
		recv[src] = c.collRecv("alltoallv", src, tagAlltoallv)
	}
	return recv
}
