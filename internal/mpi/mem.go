package mpi

// The buffer-lifetime rule. Every payload word is copied once on its way
// out and (over TCP) decoded once on its way in; who owns the buffer it
// sits in is the same on both transports:
//
//   - The sender keeps its buffer. Send returns with the payload copied —
//     in-process into a wire copy lent by the destination's mailbox, over
//     TCP encoded into a frame buffer from the destination peer's free list
//     (owned by that peer's outbox until the cumulative ack releases it;
//     retransmission and hot-replace replay write those same bytes) — so the
//     caller may overwrite words at once.
//   - The message owns the wire copy while it is queued; the receiving rank
//     owns it from the moment a receive takes it. The TCP reader decodes an
//     arriving frame's words into a buffer the destination mailbox lends
//     (PayloadLender), so from Deliver on the two transports are one path.
//   - The receiving rank returns the buffer to its own mailbox's free list
//     at exactly two points: a collective's internal hop right after it is
//     folded into the result (reduceAndFan, the ring steps, the gathers),
//     and an Alltoallv row when the rank next calls Alltoallv. What a user
//     call hands out — Recv, Bcast, Allgather, AllgatherV — is caller-owned
//     and never recycled.
//
// The free list is per mailbox, bounded (mailboxFreeWords), and a plain list:
// a buffer is on it only while nothing references it, and it is lent only to
// senders addressing this mailbox.

// memTransport is the in-process wire: one rank goroutine's view of the
// mailbox fabric. Every message of an in-process world crosses it — user
// sends and the hops collectives are composed of alike — exactly as a
// distributed world's cross its sockets. Send makes the wire copy (see the
// rule above), stamps it with a CRC32C checksum, applies the fault plan's
// wire faults to the copy (corruption — drops and delays are injected above
// the transport, identically for every transport), and appends to the
// destination's mailbox. There is no real network underneath, so Start and
// Close are no-ops and the robustness counters stay zero.
type memTransport struct {
	world *World
	rank  int
}

func (m memTransport) Self() int { return m.rank }
func (m memTransport) Size() int { return m.world.size }

func (m memTransport) Send(dest, tag int, words []Word) error {
	box := m.world.boxes[dest]
	cp := box.lend(len(words))
	copy(cp, words)
	// The checksum covers the payload as sent; wire corruption is injected
	// after, exactly like a bit flip between two real NICs, so the receiver's
	// verification catches it.
	crc := ChecksumWords(cp)
	if fs := m.world.fstate; fs != nil {
		if i, mask, ok := fs.corruptNow(m.rank, int(m.world.epochs[m.rank].Load()), len(cp)); ok {
			cp[i] ^= mask
		}
	}
	box.put(message{src: m.rank, tag: tag, words: cp, crc: crc})
	return nil
}

func (m memTransport) Start(Handler) error { return nil }
func (m memTransport) Close() error        { return nil }
func (m memTransport) Net() NetStats       { return NetStats{} }
