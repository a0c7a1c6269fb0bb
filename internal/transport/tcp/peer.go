package tcp

import (
	"net"
	"sync"
	"time"

	"paralagg/internal/freelist"
	"paralagg/internal/mpi"
)

// peer is one remote rank's connection state: the (single, duplex) TCP
// connection shared by the pair, the outbox of unacknowledged frames that
// makes delivery survive reconnects, and the liveness clock the failure
// detector reads. The higher rank of a pair dials; the lower accepts.
type peer struct {
	t      *Transport
	rank   int
	dialer bool

	firstConn chan struct{} // closed once the first connection is up
	firstOnce sync.Once

	mu   sync.Mutex
	cond *sync.Cond
	conn net.Conn
	// gen numbers connection incarnations: reader/writer goroutines are
	// bound to the gen they were spawned for and exit when it moves on.
	gen int

	// out is the retransmission queue: every data frame since the last
	// cumulative ack, in seq order — plus, with hot replacement enabled,
	// acked history back to the hold floor (the replay inventory a rejoining
	// replacement is fed). next indexes the first not-yet-written frame; a
	// reconnect rewinds next to 0 (after pruning the releasable prefix) so
	// the undelivered tail is sent again. A frame is held as the bytes Send
	// encoded: first transmission, retransmission and replay all write those
	// bytes, and releasing the frame returns them to free.
	out  []outFrame
	next int
	// free recycles released frames' buffers to later Sends. writing is the
	// seq whose bytes the writer is putting on the wire right now (0: none):
	// an ack can release a frame while it is still being written, so those
	// bytes cannot go to the next Send yet; writingFreed marks that, and the
	// writer puts them on free once the write returns.
	free         freelist.List[byte]
	writing      uint64
	writingFreed bool
	// seq numbers outgoing data frames (1-based); lastRecv is the highest
	// in-order seq received from the peer — the cumulative ack we advertise
	// in hellos and heartbeats, and the dedup horizon for retransmits.
	seq, lastRecv uint64
	// ackSent is the cumulative ack last put on the wire for this peer.
	// Once lastRecv runs earlyAckFrames (or a quarter of the advertised
	// window, if smaller) ahead of it the reader sets ackDue and the writer
	// sends a beacon at once instead of leaving the sender to wait out the
	// heartbeat interval.
	ackSent uint64
	ackDue  bool
	// acked is the highest cumulative ack the peer ever sent us: the flow
	// control horizon. Distinct from the prune position once history is
	// held back for replacement replay.
	acked uint64
	// mark is the send position recorded at the latest checkpoint; holdFloor
	// is the previous checkpoint's mark — frames above it are retained even
	// when acked, so a replacement restoring either of the two newest
	// checkpoint generations can be replayed its lost tail.
	mark, holdFloor uint64
	// maxWritten is the highest seq ever put on the wire; rewriting at or
	// below it counts as a retransmission.
	maxWritten uint64
	// advertised is the receive window the peer last piggybacked on a
	// heartbeat (0 until the first one arrives). Senders honor the smaller
	// of it and the local configured window.
	advertised int64
	// epoch is the peer's membership incarnation as last admitted. Hellos
	// from a lower epoch are rejected; a higher epoch resurrects the peer.
	epoch uint64

	lastAlive time.Time
	departed  bool // peer said bye: a clean exit, not a crash
	failed    bool // failure detector declared the peer dead
	// recovering parks the peer between failure detection and the admission
	// of a higher-epoch replacement (or the ReplaceTimeout fallback to
	// failed). Senders suspend their stall deadlines while it is set.
	recovering   bool
	recoverSince time.Time

	everConn bool
	// writeMu serializes frame writes on the connection (the writer loop
	// and the heartbeat beacon share it).
	writeMu sync.Mutex
}

// outFrame is one outbox entry: a data frame's seq and its wire encoding.
type outFrame struct {
	seq uint64
	enc []byte
}

// outboxFreeBytes bounds the idle frame-buffer capacity a peer retains: a full
// default window of small frames, or a few bulk ones.
const outboxFreeBytes = 4 << 20

// earlyAckFrames caps how many data frames a reader takes in before it asks
// for an ack beacon. Data frames carry no ack, and a sender keeps a buffer
// for every unacked frame, so a quarter of a large window would let a
// short-lived gang allocate an outbox buffer per frame it ever sends;
// acking every few frames lets it recycle a handful instead.
const earlyAckFrames = 16

func newPeer(t *Transport, rank int) *peer {
	p := &peer{
		t:         t,
		rank:      rank,
		dialer:    t.self > rank,
		firstConn: make(chan struct{}),
		lastAlive: time.Now(),
	}
	p.free.Limit = outboxFreeBytes
	// A rejoining replacement resumes the dead incarnation's wire position:
	// sends continue its exact frame numbering (survivors dedup the replayed
	// prefix) and the receive horizon rewinds to what the restored state
	// consumed (survivor history replay is accepted above it).
	if len(t.cfg.InitialSendSeqs) == t.size {
		p.seq = t.cfg.InitialSendSeqs[rank]
		p.mark = p.seq
	}
	if len(t.cfg.InitialRecvSeqs) == t.size {
		p.lastRecv = t.cfg.InitialRecvSeqs[rank]
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// connectLoop is the dialer side: attempt, back off (exponentially, capped,
// with deterministic jitter), retry — until connected, stopped, or the peer
// is gone. The acceptor side has no loop; it just waits for the next dial.
func (p *peer) connectLoop() {
	t := p.t
	for attempt := 0; ; attempt++ {
		p.mu.Lock()
		done := p.failed || p.departed
		p.mu.Unlock()
		if done || t.isStopped() {
			return
		}
		if !t.fs.partitioned(p.rank) {
			if conn := p.dialOnce(); conn != nil {
				if p.attach(conn.c, conn.ack, conn.epoch) {
					return
				}
			}
		}
		if attempt > 0 {
			t.ctr.dialRetries.Add(1)
		}
		select {
		case <-t.stop:
			return
		case <-time.After(p.backoff(attempt)):
		}
	}
}

// backoff computes the delay before dial attempt n: dialBackoff doubled per
// attempt, capped at dialBackoffMax, jittered to [50%, 150%) by a
// deterministic hash so retry storms desynchronize reproducibly.
func (p *peer) backoff(attempt int) time.Duration {
	d := dialBackoff
	for i := 0; i < attempt && d < dialBackoffMax; i++ {
		d *= 2
	}
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	h := jitterHash(p.t.cfg.Seed, p.t.self, p.rank, attempt)
	frac := float64(h>>11) / float64(1<<53) // [0, 1)
	return d/2 + time.Duration(frac*float64(d))
}

// jitterHash is a splitmix64-style counter hash: the backoff's only source
// of randomness, so runs under the same seed retry at the same instants.
func jitterHash(seed int64, a, b, c int) uint64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [3]uint64{uint64(a), uint64(b), uint64(c)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

type handshook struct {
	c     net.Conn
	ack   uint64
	epoch uint64
}

// dialOnce makes one connection attempt including the hello handshake:
// send our rank, receive position, and membership epoch; read the peer's.
// nil means try again.
func (p *peer) dialOnce() *handshook {
	t := p.t
	conn, err := net.DialTimeout("tcp", t.cfg.Peers[p.rank], dialAttemptTimeout)
	if err != nil {
		return nil
	}
	conn.SetDeadline(time.Now().Add(dialAttemptTimeout))
	p.mu.Lock()
	ack := p.lastRecv
	p.mu.Unlock()
	hello := encodeFrame(nil, frame{typ: ftHello, src: uint32(t.self), tag: helloMagic, seq: ack,
		words: []mpi.Word{t.cfg.Epoch}})
	if _, err := conn.Write(hello); err != nil {
		conn.Close()
		return nil
	}
	var scratch []byte
	reply, err := readFrame(conn, &scratch, helloFrameBytes)
	if err != nil || reply.typ != ftHello || reply.tag != helloMagic || int(reply.src) != p.rank {
		conn.Close()
		return nil
	}
	conn.SetDeadline(time.Time{})
	return &handshook{c: conn, ack: reply.seq, epoch: frameEpoch(reply)}
}

// attach installs a freshly handshaken connection: admit the peer's
// membership epoch (rejecting stale incarnations, resurrecting on a higher
// one), prune the outbox's releasable prefix, rewind the write cursor so
// the retained tail retransmits, and spawn this incarnation's reader and
// writer.
func (p *peer) attach(conn net.Conn, peerAck, epoch uint64) bool {
	t := p.t
	p.mu.Lock()
	if t.isStopped() || p.failed || epoch < p.epoch {
		p.mu.Unlock()
		conn.Close()
		return false
	}
	// Admit the epoch (a higher one is a replacement incarnation; the same
	// one reconnecting is a peer that was merely slow) and lift any recovery
	// park. lastRecv survives — a replacement replays the dead incarnation's
	// exact frame numbering, so the dedup horizon must not regress.
	if epoch > p.epoch {
		p.epoch = epoch
	}
	resurrected := p.recovering
	p.recovering = false
	if p.conn != nil {
		// A stale connection the dialer already replaced: retire it.
		p.conn.Close()
	}
	p.ackLocked(peerAck)
	p.next = 0
	p.conn = conn
	p.gen++
	gen := p.gen
	p.lastAlive = time.Now()
	reconnect := p.everConn
	p.everConn = true
	p.mu.Unlock()
	if resurrected {
		if rh, ok := t.handler.(mpi.RecoveryHandler); ok {
			rh.PeerRecovered(p.rank)
		}
	}
	if reconnect {
		t.ctr.reconnects.Add(1)
	}
	t.wg.Add(2)
	go func() {
		defer t.wg.Done()
		p.readLoop(conn, gen)
	}()
	go func() {
		defer t.wg.Done()
		p.writeLoop(conn, gen)
	}()
	p.firstOnce.Do(func() { close(p.firstConn) })
	p.cond.Broadcast()
	return true
}

// windowLocked returns the effective send window toward this peer: the
// smaller of the configured window and the peer's advertised credit.
// Requires p.mu held.
func (p *peer) windowLocked() int {
	w := p.t.cfg.SendWindow
	if p.advertised > 0 && int(p.advertised) < w {
		w = int(p.advertised)
	}
	return w
}

// ackLocked records a cumulative ack and drops the releasable outbox
// prefix: everything acked, except that with hot replacement enabled frames
// above the hold floor are retained as replay history for a rejoining
// replacement. Requires p.mu held.
func (p *peer) ackLocked(ack uint64) {
	if ack > p.acked {
		p.acked = ack
	}
	limit := p.acked
	if p.t.HotReplace() && p.holdFloor < limit {
		limit = p.holdFloor
	}
	p.dropLocked(limit)
}

// unackedLocked counts outbox frames above the flow-control horizon (the
// outbox is seq-contiguous, so this is arithmetic, not a scan). Requires
// p.mu held.
func (p *peer) unackedLocked() int {
	if len(p.out) == 0 {
		return 0
	}
	first := p.out[0].seq
	if p.acked < first {
		return len(p.out)
	}
	n := len(p.out) - int(p.acked-first+1)
	if n < 0 {
		n = 0
	}
	return n
}

// dropLocked discards outbox frames at or below limit, releasing their
// accounted words and recycling their buffers. Requires p.mu held.
func (p *peer) dropLocked(limit uint64) {
	drop := 0
	var freed int64
	for drop < len(p.out) && p.out[drop].seq <= limit {
		o := p.out[drop]
		freed += int64(payloadWords(len(o.enc))) + frameOverheadWords
		if o.seq != p.writing {
			p.free.Put(o.enc)
		} else {
			p.writingFreed = true
		}
		drop++
	}
	if drop > 0 {
		n := copy(p.out, p.out[drop:])
		clear(p.out[n:]) // the released buffers belong to free (or the collector) now
		p.out = p.out[:n]
		p.next -= drop
		if p.next < 0 {
			p.next = 0
		}
		p.t.acct().AddOutboxWords(-freed)
	}
}

// connLost retires connection incarnation gen after an IO error. Whoever
// notices first (reader, writer, heartbeat) wins; the dialer side then
// starts reconnecting.
func (p *peer) connLost(gen int, _ error) {
	t := p.t
	p.mu.Lock()
	if p.gen != gen {
		p.mu.Unlock() // a newer incarnation is already up
		return
	}
	conn := p.conn
	p.conn = nil
	p.gen++
	redial := p.dialer && !p.failed && !p.departed
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
	p.cond.Broadcast()
	if redial && !t.isStopped() {
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			p.connectLoop()
		}()
	}
}

// readLoop consumes frames for one connection incarnation. Every frame —
// data, heartbeat, bye — refreshes the peer's liveness clock. A CRC failure
// tears the connection down; the retransmission protocol then recovers the
// frame instead of ever delivering corrupt bits.
func (p *peer) readLoop(conn net.Conn, gen int) {
	t := p.t
	// Straight off conn, length prefix then body: two reads per frame, on
	// purpose. A buffered reader halves the syscalls and was measured to put
	// a second OS thread on the critical path of a third of a loopback
	// gang's round trips (36% against 7%: EXPERIMENTS.md, PR 22), which made
	// latency-bound reads slower and different from run to run.
	fr := &frameReader{r: conn}
	if l, ok := t.handler.(mpi.PayloadLender); ok {
		fr.lend = l.LendPayload
	}
	for {
		f, err := fr.read(maxFrameBytes)
		if err != nil {
			if err == errCRC {
				t.ctr.crcErrors.Add(1)
			}
			p.connLost(gen, err)
			return
		}
		if f.typ == ftData {
			// A chaos SlowConsumer throttles here, ahead of the ack horizon:
			// the delayed consumption delays the cumulative ack too, exactly
			// like a receiver that cannot keep up.
			if d := t.fs.recvDelay(); d > 0 {
				time.Sleep(d)
			}
		}
		p.mu.Lock()
		if p.gen != gen {
			p.mu.Unlock() // stale incarnation still draining its buffer
			return
		}
		if f.typ == ftHeartbeat && frameEpoch(f) < p.epoch {
			// A beacon from a dead incarnation that raced the epoch
			// admission: its ack and credit are stale, and it must not
			// refresh liveness.
			p.mu.Unlock()
			continue
		}
		p.lastAlive = time.Now()
		// Acks and credit updates wake senders blocked on the window; an ack
		// falling due wakes the writer.
		deliver, wake := false, f.typ != ftData
		switch f.typ {
		case ftData:
			if f.seq <= p.lastRecv {
				t.ctr.dupsDropped.Add(1) // retransmit of something delivered
			} else {
				p.lastRecv = f.seq
				deliver = true
				if p.lastRecv-p.ackSent >= uint64(max(1, min(t.advertWindow()/4, earlyAckFrames))) {
					p.ackDue, wake = true, true
				}
			}
		case ftHeartbeat:
			p.ackLocked(f.seq)
			p.advertised = f.tag
		case ftBye:
			p.departed = true
		}
		p.mu.Unlock()
		t.ctr.framesRecv.Add(1)
		if deliver {
			t.peerRecv[f.src].Add(int64(len(f.words)) * mpi.WordBytes)
			t.handler.Deliver(int(f.src), int(f.tag), f.words)
		}
		if wake {
			p.cond.Broadcast()
		}
	}
}

// writeLoop drains the outbox onto one connection incarnation, in seq
// order, starting from the rewound cursor (which makes reconnects
// retransmit the unacknowledged tail). It also sends the early acks the
// reader asks for: the reader itself never writes, so two endpoints
// streaming at each other cannot both block in a write with nobody reading.
func (p *peer) writeLoop(conn net.Conn, gen int) {
	t := p.t
	for {
		p.mu.Lock()
		for p.gen == gen && p.next >= len(p.out) && !p.ackDue {
			if t.isStopped() {
				// Close sets stopped before its flush wait: drain what is
				// queued, exit only once idle (teardown retires gen).
				p.mu.Unlock()
				return
			}
			p.cond.Wait()
		}
		if p.gen != gen {
			p.mu.Unlock()
			return
		}
		if p.ackDue {
			p.mu.Unlock()
			if err := p.beacon(conn); err != nil {
				p.connLost(gen, err)
				return
			}
			continue
		}
		seq, size := p.out[p.next].seq, len(p.out[p.next].enc)
		p.next++
		retransmit := seq <= p.maxWritten
		if !retransmit {
			p.maxWritten = seq
		}
		p.mu.Unlock()
		if retransmit {
			t.ctr.retransmits.Add(1)
		}
		if err := p.writeData(conn, gen, seq, size); err != nil {
			p.connLost(gen, err)
			return
		}
	}
}

// beacon writes one heartbeat frame: the cumulative ack in seq, the
// advertised receive window in tag (0 would mean "no credit protocol" to
// old peers; advertWindow never returns 0), and the membership epoch as its
// payload word so stale-epoch beacons from a dead incarnation are
// rejectable. The periodic heartbeat and the early ack are this same frame.
func (p *peer) beacon(conn net.Conn) error {
	t := p.t
	p.mu.Lock()
	ack := p.lastRecv
	p.ackSent, p.ackDue = ack, false
	p.mu.Unlock()
	return p.write(conn, frame{typ: ftHeartbeat, src: uint32(t.self), tag: t.advertWindow(), seq: ack,
		words: []mpi.Word{t.cfg.Epoch}})
}

// write puts one control frame (heartbeat, bye) on the wire.
func (p *peer) write(conn net.Conn, f frame) error {
	enc := encodeFrame(nil, f)
	v := p.verdict(false, len(enc))
	if v.drop {
		return nil
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	return p.put(conn, enc, v)
}

// writeData puts outbox frame seq (size encoded bytes) on incarnation gen.
// The bytes are looked up under the write lock and pinned (p.writing) for the
// write, so an ack releasing the frame meanwhile cannot hand them to another
// Send — they go on the free list once the write returns; a frame already
// released, or a retired incarnation, writes nothing.
func (p *peer) writeData(conn net.Conn, gen int, seq uint64, size int) error {
	v := p.verdict(true, size)
	if v.drop {
		return nil
	}
	p.writeMu.Lock()
	defer p.writeMu.Unlock()
	p.mu.Lock()
	var enc []byte
	if p.gen == gen && len(p.out) > 0 && seq >= p.out[0].seq && seq-p.out[0].seq < uint64(len(p.out)) {
		enc = p.out[seq-p.out[0].seq].enc
		p.writing = seq
	}
	p.mu.Unlock()
	if enc == nil {
		return nil
	}
	err := p.put(conn, enc, v)
	p.mu.Lock()
	if p.writingFreed {
		p.free.Put(enc)
	}
	p.writing, p.writingFreed = 0, false
	p.mu.Unlock()
	return err
}

// verdict asks the fault plan about one frame write and sleeps out the delay
// it orders. A dropped frame (v.drop) is simply not written: the network ate
// it, heartbeat loss will tell.
func (p *peer) verdict(isData bool, size int) writeVerdict {
	v := p.t.fs.onWrite(p.rank, isData, size)
	if v.delay > 0 {
		time.Sleep(v.delay)
	}
	return v
}

// put is the single funnel every outgoing frame passes through, p.writeMu
// held. A bit flip the fault plan ordered is on the wire only: enc is
// restored, so the retransmission after the CRC teardown is clean.
func (p *peer) put(conn net.Conn, enc []byte, v writeVerdict) error {
	t := p.t
	corrupt := v.corruptAt >= 4 && v.corruptAt < len(enc)
	if corrupt {
		enc[v.corruptAt] ^= 0x10 // bit flip inside the CRC-covered region
	}
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := conn.Write(enc)
	if corrupt {
		enc[v.corruptAt] ^= 0x10
	}
	if err == nil {
		t.ctr.framesSent.Add(1)
	}
	if v.resetAfter {
		conn.Close() // sever: both ends see the loss and reconnect
	}
	return err
}
