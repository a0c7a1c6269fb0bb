package mpi

import (
	"fmt"
	"sync"
	"time"

	"paralagg/internal/freelist"
)

// message is one point-to-point transfer in flight. crc is the CRC32C the
// sender computed over words before the payload touched the wire; the
// receiver re-computes and compares, so corruption in flight surfaces as a
// structured error instead of a wrong answer.
type message struct {
	src   int
	tag   int
	words []Word
	crc   uint32
}

// mailbox is a rank's unbounded incoming message queue. Sends append and
// never block (matching buffered MPI_Isend); receives scan for the first
// message matching (src, tag) and block until one arrives — or until the
// receive deadline passes, the source can no longer send, or the world
// aborts, in which case the blocked receiver unwinds with an error instead
// of wedging on a dead or silent sender.
type mailbox struct {
	world *World
	mu    sync.Mutex
	cond  *sync.Cond
	q     []message

	// free holds the payload buffers the owner rank is done with, lent back
	// to whoever sends here next (mem.go states the lifetime rule).
	free freelist.List[Word]

	// One timer serves every bounded receive on this mailbox: it is armed to
	// the earliest pending deadline and only ever broadcasts. waiters counts
	// the bounded receives currently relying on it (normally just the owner
	// rank's; Irecv goroutines add more), so the last one out stops it.
	timer   *time.Timer
	armed   time.Time // when timer fires; zero when it is not pending
	waiters int
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
	m.cond.Broadcast()
}

// wake re-runs every blocked take's exit conditions. Lock/unlock first so
// the broadcast cannot slip between a waiter's checks and its cond.Wait
// registration.
func (m *mailbox) wake() {
	m.mu.Lock()
	//lint:ignore SA2001 empty critical section orders the broadcast after the waiter sleeps
	m.mu.Unlock()
	m.cond.Broadcast()
}

// arm makes the mailbox timer fire no later than deadline. Callers hold mu.
func (m *mailbox) arm(deadline time.Time) {
	switch {
	case m.timer == nil:
		m.timer = time.AfterFunc(time.Until(deadline), func() {
			m.mu.Lock()
			m.armed = time.Time{}
			m.mu.Unlock()
			m.cond.Broadcast()
		})
	case m.armed.IsZero() || deadline.Before(m.armed):
		m.timer.Reset(time.Until(deadline))
	default:
		return
	}
	m.armed = deadline
}

// recvError is why a take unblocked without a message.
type recvError struct {
	timeout bool
	gone    bool           // the source's body returned: nothing more can arrive
	abort   *ErrRankFailed // set when the world aborted under us
}

// take removes and returns the first queued message from src with tag.
// src may be AnySource. A positive timeout bounds the wait: when it expires
// with no matching message the take fails with a timeout recvError, so a
// receive waiting on a dropped message or a hung sender errors out instead
// of blocking its rank forever. A receive from a specific in-process source
// also fails as soon as that source's body has returned.
//
// Abort delivery: a poisoned world unblocks the take, but when the wait is
// on a specific in-process source, only once that source can no longer send
// (it exited or was abandoned). A live sender may be one statement away
// from delivering — rank 0 fanning an agreed result out to ranks 1, 2, 3 in
// turn while rank 1 already raised on it — and a real network would deliver
// that message before the news of a peer's death; giving up early would
// make survivors report "aborted" where they should report what the message
// said. Failure unwinding therefore cascades in dependency order. AnySource
// receives and distributed worlds (whose transport orders death after
// delivery itself) give up at once.
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
				m.waiters++
			} else if !now.Before(deadline) {
				re = &recvError{timeout: true}
				break
			}
			m.arm(deadline)
		}
		m.cond.Wait()
	}
	if !deadline.IsZero() {
		if m.waiters--; m.waiters == 0 {
			m.timer.Stop()
			m.armed = time.Time{}
		}
	}
	return msg, re
}

// poll is one pass over take's exit conditions other than the deadline.
// Callers hold mu.
func (m *mailbox) poll(src, tag int) (message, *recvError, bool) {
	for i, msg := range m.q {
		if (src == AnySource || msg.src == src) && msg.tag == tag {
			m.q = append(m.q[:i], m.q[i+1:]...)
			return msg, nil, true
		}
	}
	w := m.world
	srcGone := src != AnySource && w.gone(src)
	if rf := w.abort.Load(); rf != nil && (srcGone || src == AnySource || w.dist != nil) {
		return message{}, &recvError{abort: rf}, true
	}
	if srcGone {
		return message{}, &recvError{gone: true}, true
	}
	return message{}, nil, false
}

// AnySource matches a receive against any sender, like MPI_ANY_SOURCE.
const AnySource = -1

// collTagBase is the floor of the tag space reserved for the runtime's own
// traffic (the point-to-point messages collectives are built from). User
// tags must stay below it.
const collTagBase = 1 << 30

// validTag panics when a user-level operation uses a tag inside the
// reserved collective range.
func (c *Comm) validTag(op string, tag int) {
	if tag < 0 || tag >= collTagBase {
		panic(fmt.Sprintf("mpi: %s on rank %d: tag %d outside user range [0, %d)",
			op, c.rank, tag, collTagBase))
	}
}

// sendVia pushes words to dest through the rank's transport. It is the
// shared tail of user Sends (which apply the fault gate, the drop/delay
// injectors and the P2P meters first) and of the internal sends collectives
// are made of (which skip all three).
func (c *Comm) sendVia(op string, dest, tag int, words []Word) {
	if dest == c.rank && c.world.dist != nil {
		// Local hand-off never touches the networked wire.
		memTransport{world: c.world, rank: c.rank}.Send(dest, tag, words)
		return
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

// recvVia blocks for a matching message, bounded by timeout when it is
// positive, and verifies its integrity. A timeout while a peer is parked in
// the hot-replacement window (Recovering) re-arms the wait: the
// replacement's re-admission or the transport's ReplaceTimeout decides
// whether the message eventually arrives or the world aborts. Any other
// failed wait unwinds the rank through recvFailed. On checksum mismatch the
// world fails with ErrCorruptMessage attributed to the sender.
func (c *Comm) recvVia(op string, src, tag int, timeout time.Duration) message {
	box := c.world.boxes[c.rank]
	msg, re := box.take(src, tag, timeout)
	for re != nil && re.timeout && c.world.Recovering() {
		msg, re = box.take(src, tag, timeout)
	}
	if re != nil {
		c.recvFailed(op, src, tag, timeout, re)
	}
	if ChecksumWords(msg.words) != msg.crc {
		rf := &ErrRankFailed{Rank: msg.src, Op: op, Iter: c.Epoch(), Cause: ErrCorruptMessage}
		c.world.fail(rf)
		panic(rf)
	}
	c.world.stats.addPeerRecv(c.rank, msg.src, len(msg.words)*WordBytes)
	return msg
}

// recvFailed unwinds the calling rank out of a receive that ended without a
// message. An abort propagates as is. Otherwise the question is who to
// blame. Inside an in-process collective the receiver is only the
// messenger: every rank publishes who it is blocked on (collRecv), so the
// chain src → whoever src waits for → … is followed to the first rank that
// is not itself waiting — the one absent from the collective (hung, still
// computing, or already returned) — and that rank is declared dead with
// ErrWatchdogTimeout under the collective's name and its own epoch. User
// receives, distributed worlds (no shared view; the transport's heartbeats
// name dead peers) and wait cycles fail the receiver with ErrRecvTimeout.
func (c *Comm) recvFailed(op string, src, tag int, timeout time.Duration, re *recvError) {
	w := c.world
	if re.abort != nil {
		panic(abortPanic{re.abort})
	}
	if w.dist == nil && w.blockedOn[c.rank].Load() != 0 {
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

// Send transmits words to dest with the given tag. It does not block: the
// runtime buffers the message (the MPI_Isend discipline the paper's
// intra-bucket communication relies on). The words slice is copied, so the
// caller may immediately reuse it. Under a fault plan the message may be
// deterministically dropped, delayed, or have one payload word corrupted —
// corruption is caught by the receiver's CRC32C check.
func (c *Comm) Send(dest, tag int, words []Word) {
	c.enter("send")
	c.validRank("send", dest)
	c.validTag("send", tag)
	seq := c.sendSeq[dest]
	c.sendSeq[dest]++
	if fs := c.world.fstate; fs != nil {
		if fs.dropNow(c.rank, dest, seq) {
			return // dropped on the wire: never metered, never delivered
		}
		if d := fs.delayNow(c.rank, dest, seq); d > 0 {
			time.Sleep(d)
		}
	}
	c.world.stats.addP2P(c.rank, dest, len(words)*WordBytes)
	c.sendVia("send", dest, tag, words)
}

// Recv blocks until a message from src with the given tag arrives and
// returns its payload. Pass AnySource to match any sender; the actual
// sender is returned alongside the payload. With a watchdog configured the
// wait is bounded: a receive that stays unmatched past the timeout (the
// sender's message was dropped, or the sender hangs) fails the rank with a
// structured ErrRankFailed instead of wedging it forever; a receive from an
// in-process sender whose body already returned fails the same way at once.
func (c *Comm) Recv(src, tag int) (words []Word, from int) {
	c.enter("recv")
	if src != AnySource {
		c.validRank("recv", src)
	}
	c.validTag("recv", tag)
	msg := c.recvVia("recv", src, tag, c.world.curWatchdog())
	return msg.words, msg.src
}

// SendTuples is Send for callers holding a tuple buffer: it transmits the
// arity followed by the flat words, preserving self-describing framing.
func (c *Comm) SendTuples(dest, tag, arity int, words []Word) {
	framed := make([]Word, 0, len(words)+1)
	framed = append(framed, Word(arity))
	framed = append(framed, words...)
	c.Send(dest, tag, framed)
}

// RecvTuples receives a buffer sent with SendTuples and returns its arity
// and words.
func (c *Comm) RecvTuples(src, tag int) (arity int, words []Word, from int) {
	framed, from := c.Recv(src, tag)
	if len(framed) == 0 {
		panic(fmt.Sprintf("mpi: RecvTuples on rank %d got unframed empty message from rank %d", c.rank, from))
	}
	return int(framed[0]), framed[1:], from
}
