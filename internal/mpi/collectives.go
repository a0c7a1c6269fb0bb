package mpi

import "fmt"

// Collectives. On every world a collective is the same three steps: pass the
// fault gate (enter), meter the operation's logical payload once, then
// exchange point-to-point messages in the shape the rank's ScheduleKind
// selects (schedule.go) — the flat star through rank 0, a topology-aware
// binomial tree, or a ring for large AllreduceVec payloads — over whatever
// Transport the world runs on: mailboxes between goroutines, sockets between
// processes. The exchange primitives and the tag discipline are in
// p2pcoll.go. Collectives are matched by arrival order, exactly as in MPI:
// every rank must call the same collective in the same sequence. A one-rank
// world has nobody to exchange with and returns right after metering (the
// hot-path allocation pins rely on that).

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
	// The ring's bandwidth advantage is meaningless for one word, so
	// ScheduleRing reduces scalars over the tree like everything else.
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
	// The observed payload length is the auto schedule's ring signal (see
	// ScheduleVote).
	c.lastVecWords = len(send)
	copy(recv, send)
	if c.sched == ScheduleRing {
		return c.ringAllreduceVec(recv, op)
	}
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
		t := c.treeFor(0)
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

// Bcast distributes root's words to every rank. Non-root ranks pass nil.
// Every rank receives a private copy.
func (c *Comm) Bcast(root int, words []Word) []Word {
	c.enter("bcast")
	c.validRank("bcast", root)
	bytes := 0
	if c.rank == root {
		bytes = len(words) * WordBytes * (c.world.size - 1)
	}
	c.world.stats.addCollective(c.rank, collBcast, bytes)
	if c.world.size == 1 {
		return words
	}
	if c.sched != ScheduleFlat {
		return c.treeFanDown("bcast", tagBcast, c.treeFor(root), words)
	}
	if c.rank != root {
		return c.collRecv("bcast", root, tagBcast)
	}
	for r := 0; r < c.world.size; r++ {
		if r != root {
			c.collSend("bcast", r, tagBcast, words)
		}
	}
	return words
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

// AllgatherV collects a variable-length word vector from each rank and
// returns all of them, indexed by rank, to every rank. It implements the
// paper's outer-relation replication within a bucket when sub-bucket groups
// span the whole world.
func (c *Comm) AllgatherV(words []Word) [][]Word {
	c.enter("allgatherv")
	c.world.stats.addCollective(c.rank, collAllgatherv, len(words)*WordBytes*(c.world.size-1))
	n := c.world.size
	if n == 1 {
		return [][]Word{words}
	}
	contribs := c.gatherTo0(c.sched, "allgatherv", tagAllgatherv, words)
	var flat []Word
	if contribs != nil {
		// Self-describing concatenation: per-rank lengths, then payloads.
		total := 1 + n
		for _, s := range contribs {
			total += len(s)
		}
		flat = make([]Word, 0, total)
		flat = append(flat, Word(n))
		for _, s := range contribs {
			flat = append(flat, Word(len(s)))
		}
		for _, s := range contribs {
			flat = append(flat, s...)
		}
		c.gathered(c.sched, contribs)
	}
	shared := c.fanFrom0(c.sched, "allgatherv", tagAllgatherv, flat)
	out := make([][]Word, n)
	off := 1 + n
	for r := 0; r < n; r++ {
		l := int(shared[1+r])
		if r == c.rank {
			out[r] = words
		} else {
			out[r] = make([]Word, l)
			copy(out[r], shared[off:off+l])
		}
		off += l
	}
	if contribs == nil {
		c.release(shared) // a received hop, copied out above; rank 0's is flat
	}
	return out
}

// Gather collects one word from each rank at root. Non-root ranks receive
// nil.
func (c *Comm) Gather(root int, v uint64) []uint64 {
	c.enter("gather")
	c.validRank("gather", root)
	c.world.stats.addCollective(c.rank, collGather, WordBytes)
	if c.world.size == 1 {
		return []uint64{v}
	}
	if c.sched != ScheduleFlat {
		contribs := c.treeGather("gather", tagGather, c.treeFor(root), []Word{v})
		if contribs == nil {
			return nil
		}
		out := make([]uint64, c.world.size)
		for r, w := range contribs {
			out[r] = w[0]
		}
		return out
	}
	if c.rank != root {
		c.collSend("gather", root, tagGather, []Word{v})
		return nil
	}
	out := make([]uint64, c.world.size)
	out[root] = v
	for r := range out {
		if r != root {
			out[r] = c.collRecv("gather", r, tagGather)[0]
		}
	}
	return out
}
