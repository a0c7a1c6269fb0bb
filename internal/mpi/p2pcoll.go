package mpi

// The exchange primitives collectives are composed from: point-to-point
// hops in the reserved tag space above collTagBase, sent through the rank's
// Transport (collSend, collRecv in p2p.go). Which shape a collective takes
// is decided by the world's ScheduleKind (see schedule.go): the flat star
// (gather-to-root + broadcast, rank 0 an O(P) serialization point) or a
// topology-aware binomial tree rooted at rank 0 (O(log P) critical path,
// root traffic cut to its tree degree).
//
// Tag discipline under multi-hop schedules: one reserved tag per collective
// kind is still sufficient. The matching argument is MPI's — every rank
// calls the same collectives in the same order — plus two properties of the
// schedules: (1) each (src, dst, tag) stream is FIFO, and (2) a rank sends
// its messages for collective k+1 only after locally completing collective
// k, which required consuming every collective-k message addressed to it on
// these tags. A reduce-up message and a fan-down message of the same
// collective travel opposite directions of an edge (distinct streams), and
// consecutive same-kind collectives consume a fixed per-stream message
// count, so multi-hop forwarding never cross-matches generations.
//
// Faults target the collective operation as a whole (crash/hang at entry,
// corruption on the wire), and the collective's logical byte count is
// metered once at entry, so the collective meters do not depend on the
// schedule. Every hop is individually bounded by the receive watchdog
// (collRecv), so a depth-d schedule turns a dead interior rank into a
// structured failure within d deadlines rather than a wedged tree.

// collTagBase offsets the collective tags. The offset and every tag value
// below are part of the TCP wire format.
const collTagBase = 1 << 30

// Reserved tags, one per collective kind. Gather/reduce-up and
// broadcast/fan-down phases of one kind share a tag safely: the two
// directions of an edge are distinct streams. The values are part of the
// TCP wire format; the gaps are tags of deleted collectives, never reused.
const (
	tagBarrier      = collTagBase + 0
	tagAllreduce    = collTagBase + 1
	tagAllgather    = collTagBase + 2
	tagAlltoallv    = collTagBase + 4
	tagAllreduceVec = collTagBase + 7
	tagCkptMarks    = collTagBase + 8
)

// release returns a payload this rank received and is done with to its
// mailbox's free list (mem.go: the lifetime rule) — only what no one can
// still read: a folded hop, an Alltoallv row once the next exchange starts.
func (c *Comm) release(words []Word) { c.world.boxes[c.rank].recycle(words) }

// --- Flat primitives: the star patterns through rank 0.

// starGather collects every rank's words at rank 0. Rank 0 gets the full
// vector (its own entry aliased, the rest received hops the caller hands to
// gathered once it has folded them); other ranks get nil.
func (c *Comm) starGather(op string, tag int, words []Word) [][]Word {
	if c.rank != 0 {
		c.collSend(op, 0, tag, words)
		return nil
	}
	out := make([][]Word, c.world.size)
	out[0] = words
	for r := 1; r < c.world.size; r++ {
		out[r] = c.collRecv(op, r, tag)
	}
	return out
}

// starFan broadcasts words from rank 0 to everyone. Rank 0 passes the
// payload and gets it back; other ranks receive a private copy.
func (c *Comm) starFan(op string, tag int, words []Word) []Word {
	if c.rank == 0 {
		for r := 1; r < c.world.size; r++ {
			c.collSend(op, r, tag, words)
		}
		return words
	}
	return c.collRecv(op, 0, tag)
}

// --- Tree primitives: reduce-up and fan-down over the rank's view of the
// --- schedule tree. Children are visited in the tree's fan order both
// --- ways, keeping the hop sequence deterministic for wire replay.

// treeFanDown pushes words from rank 0 to every rank: non-roots receive
// their (private) copy from the parent, then forward to children.
func (c *Comm) treeFanDown(op string, tag int, words []Word) []Word {
	t := c.rootTree()
	if t.parent >= 0 {
		words = c.collRecv(op, t.parent, tag)
	}
	for _, ch := range t.children {
		c.collSend(op, ch, tag, words)
	}
	return words
}

// treeGather collects every rank's words at rank 0 by concatenating
// self-describing (rank, len, payload) triples up the tree. Rank 0 gets the
// full per-rank vector (entries alias the assembled blob); other ranks get
// nil.
func (c *Comm) treeGather(op string, tag int, words []Word) [][]Word {
	t := c.rootTree()
	blob := make([]Word, 0, 2+len(words))
	blob = append(blob, Word(c.rank), Word(len(words)))
	blob = append(blob, words...)
	for _, ch := range t.children {
		sub := c.collRecv(op, ch, tag)
		blob = append(blob, sub...)
		c.release(sub)
	}
	if t.parent >= 0 {
		c.collSend(op, t.parent, tag, blob)
		return nil
	}
	out := make([][]Word, c.world.size)
	for off := 0; off < len(blob); {
		r, l := int(blob[off]), int(blob[off+1])
		off += 2
		out[r] = blob[off : off+l : off+l]
		off += l
	}
	return out
}

// --- Schedule dispatch for the gather-then-fan collectives.

// gatherTo0 collects every rank's words at rank 0 over the world's star or
// tree: rank 0 gets the per-rank vector, everyone else nil.
func (c *Comm) gatherTo0(kind ScheduleKind, op string, tag int, words []Word) [][]Word {
	if kind == ScheduleFlat {
		return c.starGather(op, tag, words)
	}
	return c.treeGather(op, tag, words)
}

// gathered releases the hops gatherTo0 handed rank 0, after the caller has
// folded them into its result. Only the star's entries are received buffers;
// the tree's alias one blob it assembled itself.
func (c *Comm) gathered(kind ScheduleKind, contribs [][]Word) {
	if kind != ScheduleFlat || contribs == nil {
		return
	}
	for r := 1; r < len(contribs); r++ {
		c.release(contribs[r])
	}
}

// fanFrom0 hands rank 0's words to every rank over the star or the tree.
func (c *Comm) fanFrom0(kind ScheduleKind, op string, tag int, words []Word) []Word {
	if kind == ScheduleFlat {
		return c.starFan(op, tag, words)
	}
	return c.treeFanDown(op, tag, words)
}
