package mpi

// memTransport is the in-process wire: one rank goroutine's view of the
// mailbox fabric. Every message of an in-process world crosses it — user
// sends and the hops collectives are composed of alike — exactly as a
// distributed world's cross its sockets. Send copies the payload (the wire
// copy: the sender keeps its buffer, the receiver owns what arrives), stamps
// it with a CRC32C checksum, applies the fault plan's wire faults
// (corruption — drops and delays are injected above the transport,
// identically for every transport), and appends to the destination's
// mailbox. There is no real network underneath, so Start and Close are
// no-ops and the robustness counters stay zero.
type memTransport struct {
	world *World
	rank  int
}

func (m memTransport) Self() int { return m.rank }
func (m memTransport) Size() int { return m.world.size }

func (m memTransport) Send(dest, tag int, words []Word) error {
	cp := make([]Word, len(words))
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
	m.world.boxes[dest].put(message{src: m.rank, tag: tag, words: cp, crc: crc})
	return nil
}

func (m memTransport) Start(Handler) error { return nil }
func (m memTransport) Close() error        { return nil }
func (m memTransport) Net() NetStats       { return NetStats{} }
