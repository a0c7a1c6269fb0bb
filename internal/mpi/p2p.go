package mpi

import (
	"fmt"
	"sync"
	"time"

	"paralagg/internal/freelist"
)

// message is one hop of a collective in flight. crc is the CRC32C the
// sender computed over words before the payload touched the wire; the
// receiver re-computes and compares, so corruption in flight surfaces as a
// structured error instead of a wrong answer.
type message struct {
	src   int
	tag   int
	words []Word
	crc   uint32
}

// mailbox is a rank's unbounded incoming message queue. It has any number
// of senders and exactly one taker, the rank it belongs to. Sends append and
// never block (matching buffered MPI_Isend); the taker scans for the first
// message matching (src, tag) and blocks until one arrives — or until the
// receive deadline passes, the source can no longer send, or the world
// aborts, in which case it unwinds with an error instead of wedging on a
// dead or silent sender.
type mailbox struct {
	world *World
	mu    sync.Mutex
	cond  *sync.Cond
	q     []message

	// free holds the payload buffers the owner rank is done with, lent back
	// to whoever sends here next (mem.go states the lifetime rule).
	free freelist.List[Word]

	// timer bounds the taker's receive: armed to its deadline, it only ever
	// signals, and the receive stops it on the way out.
	timer *time.Timer
	armed time.Time // when timer fires; zero when it is not pending
}

// mailboxFreeWords bounds the idle payload capacity a mailbox retains (4 MiB):
// every row of a steady-state round, not a one-off bulk load.
const mailboxFreeWords = 1 << 19

func newMailbox(w *World) *mailbox {
	m := &mailbox{world: w}
	m.cond = sync.NewCond(&m.mu)
	m.free.Limit = mailboxFreeWords
	return m
}

// lend hands a sender (or the TCP reader) an n-word buffer for a payload
// addressed to this mailbox.
func (m *mailbox) lend(n int) []Word {
	if n == 0 {
		return nil
	}
	m.mu.Lock()
	buf := m.free.Get(n)
	m.mu.Unlock()
	return buf
}

// recycle takes back a payload the owner rank has finished with.
func (m *mailbox) recycle(words []Word) {
	if cap(words) == 0 {
		return
	}
	m.mu.Lock()
	m.free.Put(words)
	m.mu.Unlock()
}

func (m *mailbox) put(msg message) {
	m.mu.Lock()
	m.q = append(m.q, msg)
	m.mu.Unlock()
	m.cond.Signal()
}

// wake makes a blocked taker re-run its exit conditions. Lock/unlock first
// so the signal cannot slip between the taker's checks and its cond.Wait
// registration.
func (m *mailbox) wake() {
	m.mu.Lock()
	//lint:ignore SA2001 empty critical section orders the signal after the taker sleeps
	m.mu.Unlock()
	m.cond.Signal()
}

// arm makes the mailbox timer fire at deadline unless it already will. With
// one taker, a pending timer is always for the taker's own deadline. Callers
// hold mu.
func (m *mailbox) arm(deadline time.Time) {
	if !m.armed.IsZero() {
		return
	}
	if m.timer == nil {
		m.timer = time.AfterFunc(time.Until(deadline), func() {
			m.mu.Lock()
			m.armed = time.Time{}
			m.mu.Unlock()
			m.cond.Signal()
		})
	} else {
		m.timer.Reset(time.Until(deadline))
	}
	m.armed = deadline
}

// recvError is why a take unblocked without a message.
type recvError struct {
	timeout bool
	gone    bool           // the source's body returned: nothing more can arrive
	abort   *ErrRankFailed // set when the world aborted under us
}

// take removes and returns the first queued message from src with tag. A
// positive timeout bounds the wait: when it expires with no matching
// message the take fails with a timeout recvError, so a receive waiting on
// a hung or silent sender errors out instead of blocking its rank forever.
// A receive from an in-process source also fails as soon as that source's
// body has returned.
//
// Abort delivery: a poisoned world unblocks the take, but in-process only
// once the source can no longer send (it exited or was abandoned). A live
// sender may be one statement away from delivering — rank 0 fanning an
// agreed result out to ranks 1, 2, 3 in turn while rank 1 already raised on
// it — and a real network would deliver that message before the news of a
// peer's death; giving up early would make survivors report "aborted" where
// they should report what the message said. Failure unwinding therefore
// cascades in dependency order. Distributed worlds (whose transport orders
// death after delivery itself) give up at once.
func (m *mailbox) take(src, tag int, timeout time.Duration) (msg message, re *recvError) {
	var deadline time.Time // set once the take has blocked with a timeout
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		var done bool
		if msg, re, done = m.poll(src, tag); done {
			break
		}
		if timeout > 0 {
			now := time.Now()
			if deadline.IsZero() {
				deadline = now.Add(timeout)
			} else if !now.Before(deadline) {
				re = &recvError{timeout: true}
				break
			}
			m.arm(deadline)
		}
		m.cond.Wait()
	}
	if !deadline.IsZero() {
		m.timer.Stop()
		m.armed = time.Time{}
	}
	return msg, re
}

// poll is one pass over take's exit conditions other than the deadline.
// Callers hold mu.
func (m *mailbox) poll(src, tag int) (message, *recvError, bool) {
	for i, msg := range m.q {
		if msg.src == src && msg.tag == tag {
			m.q = append(m.q[:i], m.q[i+1:]...)
			return msg, nil, true
		}
	}
	w := m.world
	srcGone := w.gone(src)
	if rf := w.abort.Load(); rf != nil && (srcGone || w.dist != nil) {
		return message{}, &recvError{abort: rf}, true
	}
	if srcGone {
		return message{}, &recvError{gone: true}, true
	}
	return message{}, nil, false
}

// collSend pushes one hop of a collective to dest through the rank's
// transport. Hops skip the fault gate and the collective meters — the
// collective passed the one and charged the other at entry — but the
// per-peer wire meters count every hop.
func (c *Comm) collSend(op string, dest, tag int, words []Word) {
	if dest == c.rank {
		panic("mpi: internal collective self-send")
	}
	if err := c.tr.Send(dest, tag, words); err != nil {
		c.world.checkAbort()
		rf := &ErrRankFailed{Rank: c.rank, Op: op, Iter: c.Epoch(),
			Cause: fmt.Errorf("send to rank %d failed: %w", dest, err)}
		c.world.fail(rf)
		panic(rf)
	}
	c.world.stats.addPeerSent(c.rank, dest, len(words)*WordBytes)
}

// collRecv blocks for one hop of a collective from src and verifies its
// integrity. The wait is bounded by the watchdog deadline when one is in
// force — the per-hop deadline every schedule edge inherits. While it waits
// the rank publishes who it is blocked on, which is how a hop that hits the
// deadline finds the rank actually absent from the collective (recvFailed).
// A timeout while a peer is parked in the hot-replacement window
// (Recovering) re-arms the wait: the replacement's re-admission or the
// transport's ReplaceTimeout decides whether the message eventually arrives
// or the world aborts. Any other failed wait unwinds the rank through
// recvFailed. On checksum mismatch the world fails with ErrCorruptMessage
// attributed to the sender.
func (c *Comm) collRecv(op string, src, tag int) []Word {
	w := c.world
	box, timeout := w.boxes[c.rank], w.curWatchdog()
	w.blockedOn[c.rank].Store(int32(src) + 1)
	msg, re := box.take(src, tag, timeout)
	for re != nil && re.timeout && w.Recovering() {
		msg, re = box.take(src, tag, timeout)
	}
	if re != nil {
		c.recvFailed(op, src, tag, timeout, re)
	}
	if ChecksumWords(msg.words) != msg.crc {
		rf := &ErrRankFailed{Rank: msg.src, Op: op, Iter: c.Epoch(), Cause: ErrCorruptMessage}
		w.fail(rf)
		panic(rf)
	}
	w.stats.addPeerRecv(c.rank, msg.src, len(msg.words)*WordBytes)
	w.blockedOn[c.rank].Store(0)
	return msg.words
}

// recvFailed unwinds the calling rank out of a receive that ended without a
// message. An abort propagates as is. Otherwise the question is who to
// blame. In an in-process world the receiver is only the messenger: every
// rank publishes who it is blocked on (collRecv), so the chain src → whoever
// src waits for → … is followed to the first rank that is not itself
// waiting — the one absent from the collective (hung, still computing, or
// already returned) — and that rank is declared dead with
// ErrWatchdogTimeout under the collective's name and its own epoch.
// Distributed worlds (no shared view; the transport's heartbeats name dead
// peers) and wait cycles fail the receiver with ErrRecvTimeout.
func (c *Comm) recvFailed(op string, src, tag int, timeout time.Duration, re *recvError) {
	w := c.world
	if re.abort != nil {
		panic(abortPanic{re.abort})
	}
	if w.dist == nil {
		absent := src
		for hops := 0; hops < w.size && absent != c.rank; hops++ {
			next := w.blockedOn[absent].Load()
			if next == 0 {
				break
			}
			absent = int(next) - 1
		}
		if absent != c.rank {
			w.abandon(absent)
			w.fail(&ErrRankFailed{Rank: absent, Op: op, Iter: int(w.epochs[absent].Load()), Cause: ErrWatchdogTimeout})
			panic(abortPanic{w.abort.Load()})
		}
	}
	cause := fmt.Errorf("recv from rank %d tag %d waited %v: %w", src, tag, timeout, ErrRecvTimeout)
	if re.gone {
		cause = fmt.Errorf("recv from rank %d tag %d: sender exited: %w", src, tag, ErrRecvTimeout)
	}
	rf := &ErrRankFailed{Rank: c.rank, Op: op, Iter: c.Epoch(), Cause: cause}
	w.fail(rf)
	panic(rf)
}
