package tcp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"paralagg/internal/mpi"
	"paralagg/internal/resource"
)

// DefaultSendWindow bounds the per-peer outbox of unacknowledged frames
// when Config.SendWindow is unset: bounded memory however slow (or silent)
// the receiver is. A receiver acks every quarter window it delivers, and on
// every heartbeat, so a link is paced by how fast its receiver consumes,
// not by the heartbeat interval.
const DefaultSendWindow = 1024

// The wire's fixed timings. A failed connection attempt is retried after
// dialBackoff, doubling per attempt up to dialBackoffMax with deterministic
// ±50% jitter seeded by Config.Seed; dialAttemptTimeout bounds one TCP
// connect. writeTimeout is the per-frame write deadline: an expired write
// severs the connection and retransmission takes over. flushTimeout bounds
// how long a graceful Close waits for queued frames to drain.
const (
	dialBackoff        = 5 * time.Millisecond
	dialBackoffMax     = 500 * time.Millisecond
	dialAttemptTimeout = time.Second
	writeTimeout       = 10 * time.Second
	flushTimeout       = 5 * time.Second
)

// frameOverheadWords approximates the per-frame bookkeeping beyond payload
// words (header fields, slice headers) for outbox accounting.
const frameOverheadWords = 8

// Config describes one rank's endpoint of the mesh.
type Config struct {
	// Rank is this process's rank; Peers[Rank] is its own listen address.
	Rank int
	// Peers lists every rank's address (host:port), indexed by rank.
	Peers []string
	// Listener optionally injects a pre-bound listener for Peers[Rank]
	// (tests bind :0 first to avoid port races). New listens itself when nil.
	Listener net.Listener

	// HeartbeatEvery is the liveness beacon interval (default 100ms).
	HeartbeatEvery time.Duration
	// ConnectTimeout bounds full mesh establishment in Start (default 10s).
	ConnectTimeout time.Duration
	// SendWindow bounds the per-peer outbox of unacknowledged frames
	// (default DefaultSendWindow). A Send finding the window exhausted
	// blocks until acks free credit — credit-based flow control — instead
	// of buffering without limit. The window also caps what this endpoint
	// advertises to its peers in heartbeats; a peer under memory pressure
	// or chaos throttling advertises less and senders honor the smaller of
	// the two.
	SendWindow int
	// SendStallTimeout bounds how long one Send may block on an exhausted
	// window (default 10s). Past it the peer is treated as unreachable and
	// the send fails structurally — backpressure must never become a
	// silent wedge.
	SendStallTimeout time.Duration
	// PeerTimeout is the failure-detector deadline: a peer silent (no
	// frames of any kind) for longer is declared dead. It defaults to
	// 5 × HeartbeatEvery and must be at least 2 × HeartbeatEvery to survive
	// ordinary jitter.
	PeerTimeout time.Duration
	// Epoch is this endpoint's membership incarnation. The first process to
	// host a rank runs epoch 0; a hot replacement for a dead rank rejoins
	// with a strictly higher epoch. Epochs ride hello and heartbeat frames:
	// a hello from a lower epoch than the one already admitted is rejected
	// (stale traffic from a dead incarnation), a higher epoch resurrects the
	// peer instead of leaving it permanently failed.
	Epoch uint64
	// ReplaceTimeout > 0 enables hot rank replacement: a peer the failure
	// detector would declare dead is instead marked recovering — senders
	// park instead of failing, send-side history is retained back to the
	// previous checkpoint mark (see MarkCheckpoint) so a rejoining
	// replacement can be replayed the post-checkpoint tail — and only if no
	// higher-epoch incarnation is admitted within ReplaceTimeout does the
	// peer fail for real (the full-restart fallback). Every member of a gang
	// must agree on whether replacement is enabled.
	ReplaceTimeout time.Duration
	// InitialSendSeqs/InitialRecvSeqs seed the per-peer data-frame counters
	// of a rejoining endpoint from its checkpoint's wire marks (indexed by
	// rank; own entry ignored): sends resume the dead incarnation's exact
	// numbering so survivors dedup the replayed prefix, and the receive
	// horizon is rewound to what the restored state actually consumed so
	// survivors' history replay is accepted. len must be 0 or Size.
	InitialSendSeqs []uint64
	InitialRecvSeqs []uint64
	// Seed drives the deterministic backoff jitter.
	Seed int64
	// Faults injects deterministic wire faults (chaos testing). nil = clean.
	Faults *NetFaultPlan
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.HeartbeatEvery, 100*time.Millisecond)
	def(&c.ConnectTimeout, 10*time.Second)
	if c.SendWindow <= 0 {
		c.SendWindow = DefaultSendWindow
	}
	def(&c.SendStallTimeout, 10*time.Second)
	def(&c.PeerTimeout, 5*c.HeartbeatEvery)
	return c
}

// netCounters are the transport's robustness meters (lock-free, monotonic
// totals except outboxPeak, a high-water gauge).
type netCounters struct {
	framesSent, framesRecv     atomic.Int64
	dialRetries, reconnects    atomic.Int64
	retransmits, dupsDropped   atomic.Int64
	heartbeatMisses, crcErrors atomic.Int64
	throttleStalls             atomic.Int64
	outboxPeak                 atomic.Int64
}

// observeMax lifts g to at least v (lock-free running maximum).
func observeMax(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Transport is one rank's endpoint of a TCP-connected world. It implements
// mpi.Transport; build one per rank per run (like worlds, transports are
// single-shot).
type Transport struct {
	cfg     Config
	self    int
	size    int
	ln      net.Listener
	fs      *faultState
	ctr     netCounters
	handler mpi.Handler

	// peerSent/peerRecv count payload bytes per peer rank (self stays
	// zero) — the per-peer view NetStats and /metrics expose.
	peerSent []atomic.Int64
	peerRecv []atomic.Int64

	peers []*peer // nil at self index

	// acctp optionally charges the outbox to a memory accountant and lets
	// local pressure shrink the advertised receive window. Set before Start.
	acctp atomic.Pointer[resource.Accountant]

	stop    chan struct{}
	stopped atomic.Bool
	wg      sync.WaitGroup
}

// New builds (and binds) a transport endpoint. Connections are established
// by Start.
func New(cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	size := len(cfg.Peers)
	if size < 1 {
		return nil, fmt.Errorf("tcp: empty peer list")
	}
	if cfg.Rank < 0 || cfg.Rank >= size {
		return nil, fmt.Errorf("tcp: rank %d out of range [0, %d)", cfg.Rank, size)
	}
	if cfg.PeerTimeout < 2*cfg.HeartbeatEvery {
		return nil, fmt.Errorf("tcp: peer timeout %v below 2× heartbeat interval %v", cfg.PeerTimeout, cfg.HeartbeatEvery)
	}
	if n := len(cfg.InitialSendSeqs); n != 0 && n != size {
		return nil, fmt.Errorf("tcp: %d initial send seqs for a %d-rank world", n, size)
	}
	if n := len(cfg.InitialRecvSeqs); n != 0 && n != size {
		return nil, fmt.Errorf("tcp: %d initial recv seqs for a %d-rank world", n, size)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", cfg.Peers[cfg.Rank])
		if err != nil {
			return nil, fmt.Errorf("tcp: rank %d listen %s: %w", cfg.Rank, cfg.Peers[cfg.Rank], err)
		}
	}
	t := &Transport{
		cfg:      cfg,
		self:     cfg.Rank,
		size:     size,
		ln:       ln,
		fs:       newFaultState(cfg.Faults, cfg.Rank),
		peers:    make([]*peer, size),
		peerSent: make([]atomic.Int64, size),
		peerRecv: make([]atomic.Int64, size),
		stop:     make(chan struct{}),
	}
	for r := 0; r < size; r++ {
		if r != t.self {
			t.peers[r] = newPeer(t, r)
		}
	}
	return t, nil
}

// Self implements mpi.Transport.
func (t *Transport) Self() int { return t.self }

// Size implements mpi.Transport.
func (t *Transport) Size() int { return t.size }

// Addr returns the bound listen address (useful with :0 listeners).
func (t *Transport) Addr() string { return t.ln.Addr().String() }

// Net implements mpi.Transport.
func (t *Transport) Net() mpi.NetStats {
	return mpi.NetStats{
		FramesSent:       t.ctr.framesSent.Load(),
		FramesRecv:       t.ctr.framesRecv.Load(),
		DialRetries:      t.ctr.dialRetries.Load(),
		Reconnects:       t.ctr.reconnects.Load(),
		Retransmits:      t.ctr.retransmits.Load(),
		DupsDropped:      t.ctr.dupsDropped.Load(),
		HeartbeatMisses:  t.ctr.heartbeatMisses.Load(),
		CRCErrors:        t.ctr.crcErrors.Load(),
		ThrottleStalls:   t.ctr.throttleStalls.Load(),
		OutboxPeakFrames: t.ctr.outboxPeak.Load(),
		PeerBytesSent:    loadPeerBytes(t.peerSent),
		PeerBytesRecv:    loadPeerBytes(t.peerRecv),
	}
}

// loadPeerBytes snapshots a per-peer atomic counter row.
func loadPeerBytes(ctrs []atomic.Int64) []int64 {
	out := make([]int64, len(ctrs))
	for i := range ctrs {
		out[i] = ctrs[i].Load()
	}
	return out
}

// SetAccountant attaches a memory accountant: the outbox charges its
// buffered words to it, and local pressure shrinks the receive window this
// endpoint advertises. Call before Start.
func (t *Transport) SetAccountant(a *resource.Accountant) { t.acctp.Store(a) }

func (t *Transport) acct() *resource.Accountant { return t.acctp.Load() }

// HotReplace implements mpi.WireRecovery: whether this endpoint runs the
// hot-replacement membership protocol (Config.ReplaceTimeout > 0).
func (t *Transport) HotReplace() bool { return t.cfg.ReplaceTimeout > 0 }

// WireMarks implements mpi.WireRecovery: a point-in-time snapshot of the
// per-peer data-frame counters — how many frames this endpoint has sent to
// and received from each rank (own entry zero). Captured inside the
// checkpoint rendezvous, the vectors are globally consistent and name the
// exact wire position a replacement must resume from.
func (t *Transport) WireMarks() (send, recv []uint64) {
	send = make([]uint64, t.size)
	recv = make([]uint64, t.size)
	for r, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		send[r], recv[r] = p.seq, p.lastRecv
		p.mu.Unlock()
	}
	return send, recv
}

// MarkCheckpoint implements mpi.WireRecovery: record the current send
// position toward every peer as this checkpoint generation's history mark
// and advance the hold-back floor to the previous generation's mark. The
// one-generation lag means a replacement whose newest checkpoint file was
// torn can still restore the generation before it and be replayed the full
// tail — history retention is bounded by one checkpoint interval per
// generation, i.e. by CheckpointEvery iterations of traffic.
func (t *Transport) MarkCheckpoint() {
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		p.holdFloor = p.mark
		p.mark = p.seq
		limit := p.acked
		if p.holdFloor < limit {
			limit = p.holdFloor
		}
		p.dropLocked(limit)
		p.mu.Unlock()
	}
}

// advertWindow computes the receive window this endpoint piggybacks on its
// heartbeats: the configured window, narrowed by a chaos SlowConsumer spec
// and by local memory pressure — a pressured rank rate-limits its senders
// instead of letting their frames pile into its mailboxes.
func (t *Transport) advertWindow() int64 {
	w := t.cfg.SendWindow
	if sc := t.fs.slowConsumerWindow(); sc > 0 && sc < w {
		w = sc
	}
	switch t.acct().Level() {
	case resource.LevelSoft:
		w = max(8, w/4)
	case resource.LevelHard:
		w = max(4, w/16)
	}
	return int64(w)
}

func (t *Transport) isStopped() bool { return t.stopped.Load() }

// Start implements mpi.Transport: it spins up the accept loop, dials every
// lower-ranked peer (higher ranks dial, lower ranks accept — one duplex
// connection per pair), and blocks until the full mesh is up or
// ConnectTimeout expires. Heartbeats and the failure monitor start once the
// mesh is established.
func (t *Transport) Start(h mpi.Handler) error {
	if h == nil {
		return errors.New("tcp: Start needs a handler")
	}
	t.handler = h
	t.wg.Add(1)
	go t.acceptLoop()
	for _, p := range t.peers {
		if p != nil && p.dialer {
			t.wg.Add(1)
			go func(p *peer) {
				defer t.wg.Done()
				p.connectLoop()
			}(p)
		}
	}
	deadline := time.NewTimer(t.cfg.ConnectTimeout)
	defer deadline.Stop()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		select {
		case <-p.firstConn:
		case <-t.stop:
			return errors.New("tcp: transport closed during mesh establishment")
		case <-deadline.C:
			return fmt.Errorf("tcp: rank %d: peer %d unreachable after %v: %w",
				t.self, p.rank, t.cfg.ConnectTimeout, mpi.ErrPeerUnreachable)
		}
	}
	t.wg.Add(2)
	go t.heartbeatLoop()
	go t.monitorLoop()
	return nil
}

// Send implements mpi.Transport: the frame is encoded into the destination's
// outbox (retained until acknowledged, so reconnects can retransmit it)
// and written asynchronously; words is the caller's again on return. The
// outbox is bounded by the send window —
// the smaller of our configured window and the peer's advertised credit —
// so a Send finding it exhausted blocks until acks free space, bounded by
// SendStallTimeout (credit-based flow control; a never-acking peer cannot
// grow sender memory past the window). Sends to a cleanly departed peer
// are dropped; sends to a failed or stalled-past-deadline peer error.
func (t *Transport) Send(dest, tag int, words []mpi.Word) error {
	if dest < 0 || dest >= t.size || dest == t.self {
		return fmt.Errorf("tcp: send to invalid rank %d", dest)
	}
	if t.isStopped() {
		return errors.New("tcp: transport closed")
	}
	p := t.peers[dest]
	var wake *time.Timer // allocated only on the stall path
	var stallBy time.Time
	p.mu.Lock()
	for {
		if p.failed {
			p.mu.Unlock()
			stopTimer(wake)
			return fmt.Errorf("tcp: rank %d is dead: %w", dest, mpi.ErrPeerUnreachable)
		}
		if p.departed {
			// The peer finished its run and said goodbye; by the collective
			// ordering discipline it cannot need anything more from us.
			p.mu.Unlock()
			stopTimer(wake)
			return nil
		}
		if t.isStopped() {
			p.mu.Unlock()
			stopTimer(wake)
			return errors.New("tcp: transport closed")
		}
		// Flow control is over unacknowledged frames, not outbox length:
		// with hot replacement enabled the outbox also retains acked history
		// back to the hold floor, and replay inventory must not consume
		// window credit.
		if p.unackedLocked() < p.windowLocked() {
			break
		}
		if wake == nil {
			// First blocked pass: count the stall and arm a periodic wake so
			// the deadline check runs even if no ack ever arrives.
			t.ctr.throttleStalls.Add(1)
			stallBy = time.Now().Add(t.cfg.SendStallTimeout)
			wake = time.AfterFunc(t.cfg.HeartbeatEvery, p.cond.Broadcast)
		} else {
			if p.recovering {
				// The peer is awaiting a hot replacement: parking here is the
				// recovery barrier, bounded by ReplaceTimeout (expiry marks
				// the peer failed, which exits this loop with an error).
				stallBy = time.Now().Add(t.cfg.SendStallTimeout)
			}
			if time.Now().After(stallBy) {
				n := p.unackedLocked()
				p.mu.Unlock()
				wake.Stop()
				return fmt.Errorf("tcp: send window to rank %d stalled for %v (%d unacked frames): %w",
					dest, t.cfg.SendStallTimeout, n, mpi.ErrPeerUnreachable)
			}
			wake.Reset(t.cfg.HeartbeatEvery)
		}
		p.cond.Wait()
	}
	// The one encode: from the caller's words into an exactly-sized outbox
	// buffer, under the lock that orders the outbox anyway.
	p.seq++
	enc := p.free.Get(frameWireBytes(len(words)))
	putFrame(enc, frame{typ: ftData, src: uint32(t.self), tag: int64(tag), seq: p.seq, words: words})
	p.out = append(p.out, outFrame{seq: p.seq, enc: enc})
	t.peerSent[dest].Add(int64(len(words)) * mpi.WordBytes)
	observeMax(&t.ctr.outboxPeak, int64(p.unackedLocked()))
	p.mu.Unlock()
	stopTimer(wake)
	t.acct().AddOutboxWords(int64(len(words)) + frameOverheadWords)
	p.cond.Broadcast()
	return nil
}

func stopTimer(tm *time.Timer) {
	if tm != nil {
		tm.Stop()
	}
}

// acceptLoop admits incoming connections and routes them to their peer
// after the hello handshake.
func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go func(conn net.Conn) {
			defer t.wg.Done()
			t.serveConn(conn)
		}(conn)
	}
}

// serveConn performs the acceptor half of the handshake: read the dialer's
// hello (rank + its receive position), answer with ours, and attach.
func (t *Transport) serveConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(t.cfg.ConnectTimeout))
	var scratch []byte
	hello, err := readFrame(conn, &scratch, helloFrameBytes)
	if err != nil || hello.typ != ftHello || hello.tag != helloMagic ||
		int(hello.src) >= t.size || int(hello.src) == t.self {
		conn.Close()
		return
	}
	p := t.peers[hello.src]
	if t.fs.partitioned(p.rank) {
		conn.Close() // a partitioned peer cannot complete a handshake
		return
	}
	epoch := frameEpoch(hello)
	p.mu.Lock()
	stale := epoch < p.epoch
	ack := p.lastRecv
	p.mu.Unlock()
	if stale {
		conn.Close() // hello from a dead incarnation: reject its traffic
		return
	}
	reply := encodeFrame(nil, frame{typ: ftHello, src: uint32(t.self), tag: helloMagic, seq: ack,
		words: []mpi.Word{t.cfg.Epoch}})
	if _, err := conn.Write(reply); err != nil {
		conn.Close()
		return
	}
	conn.SetDeadline(time.Time{})
	p.attach(conn, hello.seq, epoch)
}

// frameEpoch extracts the membership epoch a hello or heartbeat carries in
// its first payload word (0 for frames from pre-epoch endpoints).
func frameEpoch(f frame) uint64 {
	if len(f.words) > 0 {
		return f.words[0]
	}
	return 0
}

// heartbeatLoop beacons liveness (and the cumulative ack) to every
// connected peer.
func (t *Transport) heartbeatLoop() {
	defer t.wg.Done()
	tick := time.NewTicker(t.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			conn, gen := p.conn, p.gen
			skip := p.departed || p.failed
			p.mu.Unlock()
			if conn == nil || skip {
				continue
			}
			if err := p.beacon(conn); err != nil {
				p.connLost(gen, err)
			}
		}
	}
}

// monitorLoop is the failure detector: a peer silent (no frames of any
// kind) for longer than PeerTimeout is declared dead, once, to the handler
// — the same structured failure path the in-process watchdog feeds. With
// hot replacement enabled (ReplaceTimeout > 0) the declaration is softened
// to a recovering state first: senders park, history is held, and only a
// replacement that fails to appear within ReplaceTimeout turns the peer
// into a real PeerFailed (the full-restart fallback).
func (t *Transport) monitorLoop() {
	defer t.wg.Done()
	window := t.cfg.PeerTimeout
	replace := t.HotReplace()
	tick := time.NewTicker(t.cfg.HeartbeatEvery)
	defer tick.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-tick.C:
		}
		now := time.Now()
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			silent := now.Sub(p.lastAlive)
			live := !p.departed && !p.failed
			miss := live && !p.recovering && silent > t.cfg.HeartbeatEvery
			var dead, recovering bool
			if live && silent > window {
				switch {
				case replace && !p.recovering:
					p.recovering = true
					p.recoverSince = now
					recovering = true
				case !replace:
					dead = true
				}
			}
			if live && p.recovering && now.Sub(p.recoverSince) > t.cfg.ReplaceTimeout {
				p.recovering = false
				dead = true
			}
			if dead {
				p.failed = true
			}
			conn := p.conn
			p.mu.Unlock()
			if miss {
				t.ctr.heartbeatMisses.Add(1)
			}
			if recovering {
				if conn != nil {
					conn.Close()
				}
				p.cond.Broadcast()
				if rh, ok := t.handler.(mpi.RecoveryHandler); ok {
					rh.PeerRecovering(p.rank, fmt.Errorf(
						"tcp: rank %d silent for %v (> %v), awaiting replacement: %w",
						p.rank, silent.Round(time.Millisecond), window, mpi.ErrPeerUnreachable))
				}
			}
			if dead {
				if conn != nil {
					conn.Close()
				}
				p.cond.Broadcast()
				t.handler.PeerFailed(p.rank, fmt.Errorf(
					"tcp: rank %d silent for %v (> %v): %w",
					p.rank, silent.Round(time.Millisecond), window, mpi.ErrPeerUnreachable))
			}
		}
	}
}

// Close implements mpi.Transport: drain queued frames (bounded by
// flushTimeout), tell every peer this rank departed cleanly, then tear
// everything down. Use Kill to model a crash instead.
func (t *Transport) Close() error {
	if !t.stopped.CompareAndSwap(false, true) {
		return nil
	}
	// Drain: wait until every live peer's outbox is fully written.
	deadline := time.Now().Add(flushTimeout)
	for time.Now().Before(deadline) {
		drained := true
		for _, p := range t.peers {
			if p == nil {
				continue
			}
			p.mu.Lock()
			if !p.departed && !p.failed && p.next < len(p.out) {
				drained = false
			}
			p.mu.Unlock()
		}
		if drained {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	// Say goodbye so closed connections are not mistaken for a crash.
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		conn, ack := p.conn, p.lastRecv
		p.mu.Unlock()
		if conn != nil {
			p.write(conn, frame{typ: ftBye, src: uint32(t.self), seq: ack})
		}
	}
	t.teardown()
	return nil
}

// Kill tears the endpoint down abruptly — no flush, no goodbye — exactly
// what a crashed process looks like from the outside: peers lose the
// connection, fail to reconnect, and declare this rank dead by heartbeat.
func (t *Transport) Kill() {
	if !t.stopped.CompareAndSwap(false, true) {
		return
	}
	t.teardown()
}

func (t *Transport) teardown() {
	close(t.stop)
	t.ln.Close()
	for _, p := range t.peers {
		if p == nil {
			continue
		}
		p.mu.Lock()
		conn := p.conn
		p.conn = nil
		p.gen++
		p.mu.Unlock()
		if conn != nil {
			conn.Close()
		}
		p.cond.Broadcast()
	}
	t.wg.Wait()
}
