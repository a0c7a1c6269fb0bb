package mpi

import (
	"fmt"
	"time"

	"paralagg/internal/obs"
)

// Distributed execution: one OS process per rank, a real Transport between
// them. The same World/Comm surface the in-process runtime exposes runs
// unchanged — the only difference is the wire the rank's messages cross —
// and a peer the transport's failure detector declares dead surfaces as the
// same structured ErrRankFailed the in-process runtime produces, so
// checkpoint recovery and supervision work identically over real sockets.

// distState is the distributed half of a World: the process-local rank and
// the wire it speaks through.
type distState struct {
	tr   Transport
	self int
}

// NewDistributedWorld builds a world that runs over t: this process hosts
// rank t.Self() of a t.Size()-rank world. The world is single-shot, exactly
// like the in-process one — recovery means a fresh transport and a fresh
// world. SetFaultPlan and SetWatchdog apply as usual; a receive that hits
// the watchdog deadline fails the receiver with ErrRecvTimeout (processes
// share no view of who is blocked on whom; the transport's heartbeats name
// dead peers).
func NewDistributedWorld(t Transport) *World {
	w := NewWorld(t.Size())
	w.dist = &distState{tr: t, self: t.Self()}
	w.stats.net = t.Net
	return w
}

// Self returns the local rank of a distributed world (0 for in-process
// worlds, which host every rank).
func (w *World) Self() int {
	if w.dist == nil {
		return 0
	}
	return w.dist.self
}

// Distributed reports whether this world runs one rank per process over a
// real transport.
func (w *World) Distributed() bool { return w.dist != nil }

// distHandler adapts transport events to the world: messages land in the
// local mailbox, peer deaths poison the world so every blocked operation
// unwinds with a structured failure.
type distHandler struct{ w *World }

func (h distHandler) Deliver(src, tag int, words []Word) {
	// The transport verified frame integrity on the wire; the local checksum
	// keeps Recv's end-to-end verification uniform across transports.
	h.w.boxes[h.w.dist.self].put(message{src: src, tag: tag, words: words, crc: ChecksumWords(words)})
}

// LendPayload implements PayloadLender: the transport decodes each arriving
// payload straight into a buffer from the local mailbox's free list, where
// the rank returns it once consumed.
func (h distHandler) LendPayload(n int) []Word { return h.w.boxes[h.w.dist.self].lend(n) }

func (h distHandler) PeerFailed(rank int, cause error) {
	w := h.w
	w.fail(&ErrRankFailed{
		Rank: rank, Op: "transport", Iter: int(w.epochs[w.dist.self].Load()),
		Cause: cause,
	})
}

// PeerRecovering implements RecoveryHandler: a silent peer enters the hot
// replacement window. The world does not fail — receive deadlines park
// (Recovering) until the transport either re-admits the peer or gives up
// and calls PeerFailed.
func (h distHandler) PeerRecovering(rank int, cause error) {
	w := h.w
	w.recovering.Add(1)
	if w.observer != nil {
		e := obs.Get()
		e.Kind = obs.KindRankRecovering
		e.Rank = rank
		e.Iter = int(w.epochs[w.dist.self].Load())
		if cause != nil {
			e.Err = cause.Error()
		}
		e.End = time.Now().UnixNano()
		obs.Emit(w.observer, e)
	}
}

// PeerRecovered implements RecoveryHandler: a replacement incarnation (or
// the original peer, merely slow) was re-admitted; the park lifts.
func (h distHandler) PeerRecovered(rank int) {
	w := h.w
	w.recovering.Add(-1)
	if w.observer != nil {
		e := obs.Get()
		e.Kind = obs.KindRankRecovered
		e.Rank = rank
		e.Iter = int(w.epochs[w.dist.self].Load())
		e.End = time.Now().UnixNano()
		obs.Emit(w.observer, e)
	}
}

// RunLocal starts the transport and executes body as this process's single
// rank, blocking until it finishes. Panics and injected faults convert to
// errors exactly as in Run; a peer failure reported by the transport aborts
// the local rank with an error wrapping the peer's ErrRankFailed. The
// caller owns the transport: Close it (gracefully) after RunLocal returns,
// or Kill-style teardown on a failed run.
func (w *World) RunLocal(body func(c *Comm) error) error {
	if w.dist == nil {
		panic("mpi: RunLocal on a non-distributed world (use Run)")
	}
	if rf := w.abort.Load(); rf != nil {
		return fmt.Errorf("mpi: world already aborted: %w", rf)
	}
	if err := w.dist.tr.Start(distHandler{w}); err != nil {
		return fmt.Errorf("mpi: rank %d transport start: %w", w.dist.self, err)
	}
	rank := w.dist.self
	go w.runRank(rank, body)
	w.exitMu.Lock()
	for !w.exited[rank].Load() {
		w.exitCond.Wait()
	}
	err := w.errs[rank]
	w.exitMu.Unlock()
	return err
}
