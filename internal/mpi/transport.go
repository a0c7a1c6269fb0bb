package mpi

// Transport is the wire a world runs over. Two implementations exist: the
// in-process memTransport (rank goroutines exchanging buffers through
// mailboxes) and the TCP transport in internal/transport/tcp (one OS process
// per rank, length-prefixed CRC32C frames over real sockets). The mpi layer
// above is transport-agnostic: every message — user point-to-point traffic
// and the hops collectives are composed of — routes through Send, and
// incoming messages and peer failures come back through the Handler.
type Transport interface {
	// Self is the rank this transport endpoint speaks for.
	Self() int
	// Size is the number of ranks in the world the transport connects.
	Size() int
	// Send transmits words to dest with the given tag. It is buffered (like
	// MPI_Isend) and may retry/reconnect internally; a flow-controlled
	// transport may block the caller while the peer's send window is
	// exhausted (credit-based backpressure), but never indefinitely — a
	// stalled window past the transport's stall deadline fails structurally.
	// A non-nil error means the message can never be delivered (transport
	// closed, peer declared dead, or window stalled past the deadline).
	Send(dest, tag int, words []Word) error
	// Start begins delivery: incoming messages invoke h.Deliver and peer
	// deaths invoke h.PeerFailed, each from transport-owned goroutines. For
	// networked transports Start blocks until the full mesh is established
	// (with retry/backoff) and returns an error if any peer stays
	// unreachable past the connect deadline.
	Start(h Handler) error
	// Close shuts the transport down gracefully: pending sends are flushed,
	// peers are told this rank departed (so they do not mistake the closed
	// connections for a crash), and delivery stops.
	Close() error
	// Net reports the transport's robustness counters (dial retries,
	// reconnects, retransmits, heartbeat misses, CRC errors). The in-process
	// transport reports zeros.
	Net() NetStats
}

// Handler receives a transport's inbound events. The distributed world
// implements it: messages land in the local rank's mailbox, failures poison
// the world with a structured ErrRankFailed.
type Handler interface {
	// Deliver hands over one received, integrity-verified message.
	Deliver(src, tag int, words []Word)
	// PeerFailed reports that rank is dead or unreachable (heartbeat lost,
	// reconnect budget exhausted). It is called at most once per rank.
	PeerFailed(rank int, cause error)
}

// PayloadLender is an optional Handler extension: a handler that recycles
// the payloads it is delivered lends the transport's reader the buffer to
// decode the next one into, and gets that buffer back through Deliver (mem.go
// states the buffer-lifetime rule). A handler without it is delivered a fresh
// slice per message, its to keep.
type PayloadLender interface {
	// LendPayload returns a buffer of exactly n words (n > 0). It is called
	// from the transport's reader goroutines.
	LendPayload(n int) []Word
}

// RecoveryHandler is an optional Handler extension a transport consults
// when hot rank replacement is enabled: instead of going straight to
// PeerFailed, a silent peer first becomes recovering — survivors park
// (receive deadlines are suspended, senders hold) while a replacement
// incarnation is admitted — and PeerRecovered lifts the park. PeerFailed
// still follows PeerRecovering when no replacement appears in time.
type RecoveryHandler interface {
	// PeerRecovering reports that rank went silent but a replacement is
	// being awaited. Called at most once per outage.
	PeerRecovering(rank int, cause error)
	// PeerRecovered reports that a replacement (or the original peer,
	// merely slow) was re-admitted.
	PeerRecovered(rank int)
}

// WireRecovery is an optional Transport extension for hot rank
// replacement: globally consistent per-peer frame counters captured at
// checkpoints (the wire position a replacement resumes from) and the
// send-history hold-back that keeps the post-checkpoint tail replayable.
type WireRecovery interface {
	// HotReplace reports whether the replacement protocol is enabled on
	// this endpoint.
	HotReplace() bool
	// WireMarks snapshots the per-rank (sent, received) data-frame
	// counters. Only meaningful inside the checkpoint rendezvous, where
	// no frames are in flight.
	WireMarks() (send, recv []uint64)
	// MarkCheckpoint records the current send positions as this
	// generation's history mark and releases history below the previous
	// generation's mark.
	MarkCheckpoint()
}

// NetStats counts the robustness events of a networked transport: how hard
// the wire fought back and how hard the transport fought to stay correct.
// All fields are monotonic totals.
type NetStats struct {
	// FramesSent and FramesRecv count data frames that crossed the wire
	// (including retransmissions on the send side).
	FramesSent int64
	FramesRecv int64
	// DialRetries counts failed connection attempts that were retried with
	// backoff (initial establishment and reconnects).
	DialRetries int64
	// Reconnects counts connections re-established after a loss.
	Reconnects int64
	// Retransmits counts data frames resent after a reconnect because the
	// peer had not acknowledged them.
	Retransmits int64
	// DupsDropped counts received data frames discarded as already-delivered
	// duplicates (the receive side of retransmission).
	DupsDropped int64
	// HeartbeatMisses counts monitor ticks that found a peer silent for more
	// than a heartbeat interval.
	HeartbeatMisses int64
	// CRCErrors counts frames rejected for a checksum mismatch.
	CRCErrors int64
	// ThrottleStalls counts sends that blocked on an exhausted send window
	// (credit-based flow control engaging). One stall per blocked entry,
	// however long the wait.
	ThrottleStalls int64
	// OutboxPeakFrames is the high-water mark of unacknowledged frames
	// buffered for any single peer — the proof the retransmission outbox
	// stayed within the configured window. A gauge, not a total: Add takes
	// the max, Sub passes n's value through.
	OutboxPeakFrames int64
	// PeerBytesSent/PeerBytesRecv are per-peer payload byte totals, indexed
	// by rank (the self entry stays zero). They show how a collective
	// schedule concentrates or spreads wire traffic, and are the
	// observation the similarity schedule consumes. Nil on transports that
	// do not track them; Add/Sub treat nil as zeros.
	PeerBytesSent []int64
	PeerBytesRecv []int64
}

// addPeerBytes returns the elementwise a+b (nil-safe; nil when both nil).
func addPeerBytes(a, b []int64) []int64 {
	if a == nil && b == nil {
		return nil
	}
	out := make([]int64, max(len(a), len(b)))
	copy(out, a)
	for i := range b {
		out[i] += b[i]
	}
	return out
}

// subPeerBytes returns the elementwise a-b (nil-safe; nil when both nil).
func subPeerBytes(a, b []int64) []int64 {
	if a == nil && b == nil {
		return nil
	}
	out := make([]int64, max(len(a), len(b)))
	copy(out, a)
	for i := range b {
		out[i] -= b[i]
	}
	return out
}

// Add returns n + m fieldwise (max for the peak gauge).
func (n NetStats) Add(m NetStats) NetStats {
	return NetStats{
		FramesSent:       n.FramesSent + m.FramesSent,
		FramesRecv:       n.FramesRecv + m.FramesRecv,
		DialRetries:      n.DialRetries + m.DialRetries,
		Reconnects:       n.Reconnects + m.Reconnects,
		Retransmits:      n.Retransmits + m.Retransmits,
		DupsDropped:      n.DupsDropped + m.DupsDropped,
		HeartbeatMisses:  n.HeartbeatMisses + m.HeartbeatMisses,
		CRCErrors:        n.CRCErrors + m.CRCErrors,
		ThrottleStalls:   n.ThrottleStalls + m.ThrottleStalls,
		OutboxPeakFrames: max(n.OutboxPeakFrames, m.OutboxPeakFrames),
		PeerBytesSent:    addPeerBytes(n.PeerBytesSent, m.PeerBytesSent),
		PeerBytesRecv:    addPeerBytes(n.PeerBytesRecv, m.PeerBytesRecv),
	}
}

// Sub returns n - m fieldwise; the peak gauge is not a total, so n's value
// passes through (a window delta inherits the current high-water mark).
func (n NetStats) Sub(m NetStats) NetStats {
	return NetStats{
		FramesSent:       n.FramesSent - m.FramesSent,
		FramesRecv:       n.FramesRecv - m.FramesRecv,
		DialRetries:      n.DialRetries - m.DialRetries,
		Reconnects:       n.Reconnects - m.Reconnects,
		Retransmits:      n.Retransmits - m.Retransmits,
		DupsDropped:      n.DupsDropped - m.DupsDropped,
		HeartbeatMisses:  n.HeartbeatMisses - m.HeartbeatMisses,
		CRCErrors:        n.CRCErrors - m.CRCErrors,
		ThrottleStalls:   n.ThrottleStalls - m.ThrottleStalls,
		OutboxPeakFrames: n.OutboxPeakFrames,
		PeerBytesSent:    subPeerBytes(n.PeerBytesSent, m.PeerBytesSent),
		PeerBytesRecv:    subPeerBytes(n.PeerBytesRecv, m.PeerBytesRecv),
	}
}
