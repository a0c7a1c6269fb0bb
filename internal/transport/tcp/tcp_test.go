package tcp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"paralagg/internal/mpi"
)

// --- frame layer ---

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{typ: ftHello, src: 3, tag: helloMagic, seq: 17},
		{typ: ftData, src: 0, tag: -42, seq: 1, words: []mpi.Word{0, 1, ^mpi.Word(0), 0xdeadbeef}},
		{typ: ftHeartbeat, src: 7, seq: 999},
		{typ: ftBye, src: 1},
	}
	var wire []byte
	for _, f := range frames {
		wire = encodeFrame(wire, f)
	}
	r := bytes.NewReader(wire)
	var scratch []byte
	for i, want := range frames {
		got, err := readFrame(r, &scratch, maxFrameBytes)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.typ != want.typ || got.src != want.src || got.tag != want.tag || got.seq != want.seq {
			t.Errorf("frame %d: got %+v, want %+v", i, got, want)
		}
		if len(got.words) != len(want.words) {
			t.Fatalf("frame %d: %d words, want %d", i, len(got.words), len(want.words))
		}
		for j := range want.words {
			if got.words[j] != want.words[j] {
				t.Errorf("frame %d word %d: got %#x, want %#x", i, j, got.words[j], want.words[j])
			}
		}
	}
}

func TestFrameCRCDetectsEveryBitFlip(t *testing.T) {
	wire := encodeFrame(nil, frame{typ: ftData, src: 2, tag: 5, seq: 9, words: []mpi.Word{1, 2, 3}})
	// Flip one bit anywhere past the length prefix: the CRC must catch it.
	for off := 4; off < len(wire); off++ {
		bad := append([]byte(nil), wire...)
		bad[off] ^= 1
		var scratch []byte
		if _, err := readFrame(bytes.NewReader(bad), &scratch, maxFrameBytes); !errors.Is(err, errCRC) {
			t.Fatalf("flip at byte %d: err = %v, want CRC failure", off, err)
		}
	}
}

func TestFrameLengthOutOfRangeRejected(t *testing.T) {
	wire := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	var scratch []byte
	if _, err := readFrame(bytes.NewReader(wire), &scratch, maxFrameBytes); err == nil || errors.Is(err, errCRC) {
		t.Fatalf("err = %v, want a length-range error before any allocation", err)
	}
}

// appendFrameReference is the wire format written the slow, obvious way —
// field by field through append — for the in-place encoder to be checked
// against.
func appendFrameReference(buf []byte, f frame) []byte {
	body := frameHeaderBytes + len(f.words)*8
	buf = binary.LittleEndian.AppendUint32(buf, uint32(body+4))
	start := len(buf)
	buf = append(buf, f.typ)
	buf = binary.LittleEndian.AppendUint32(buf, f.src)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(f.tag))
	buf = binary.LittleEndian.AppendUint64(buf, f.seq)
	for _, w := range f.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return binary.LittleEndian.AppendUint32(buf, mpi.CRC32C(buf[start:]))
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader under both limits
// a connection can be read with — the pre-handshake one (what anything that
// can reach the listener gets) and, standing in for the handshaken gigabyte,
// the input's own length — and through both shapes a stream can arrive in:
// whole, and a byte per read, as a socket is free to hand it out. Whatever
// the bytes: no panic, no buffer sized beyond what the limit or the input
// explains, the two streams agree, and a frame that parses re-encodes — in
// place, and by the reference encoder — to exactly the bytes it was read
// from.
func FuzzReadFrame(f *testing.F) {
	for _, fr := range []frame{
		{typ: ftHello, src: 3, tag: helloMagic, seq: 17, words: []mpi.Word{2}},
		{typ: ftData, src: 0, tag: -42, seq: 1, words: []mpi.Word{0, 1, ^mpi.Word(0), 0xdeadbeef}},
		{typ: ftHeartbeat, src: 7, seq: 999},
		{typ: ftBye, src: 1},
	} {
		f.Add(encodeFrame(nil, fr))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0x3f}) // a 1 GiB claim from a stray connection
	ragged := encodeFrame(nil, frame{typ: ftData, src: 1, seq: 2, words: []mpi.Word{5}})
	ragged = append(ragged[:len(ragged)-4], 1, 2, 3) // payload ≡ 3 mod 8 …
	ragged = binary.LittleEndian.AppendUint32(ragged, mpi.CRC32C(ragged[4:]))
	binary.LittleEndian.PutUint32(ragged, uint32(len(ragged)-4)) // … under a valid length and CRC
	f.Add(ragged)

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, limit := range []uint32{helloFrameBytes, uint32(min(len(data), maxFrameBytes))} {
			var scratch []byte
			fr, err := readFrame(bytes.NewReader(data), &scratch, limit)
			if uint32(cap(scratch)) > limit {
				t.Fatalf("limit %d, %d input bytes: reader sized a %d-byte buffer", limit, len(data), cap(scratch))
			}
			short := frameReader{r: iotest.OneByteReader(bytes.NewReader(data))}
			sfr, serr := short.read(limit)
			if uint32(cap(short.scratch)) > limit {
				t.Fatalf("limit %d, %d input bytes: byte-at-a-time reader sized a %d-byte buffer", limit, len(data), cap(short.scratch))
			}
			if (err == nil) != (serr == nil) || errors.Is(err, errCRC) != errors.Is(serr, errCRC) {
				t.Fatalf("whole read: %v, byte-at-a-time read: %v", err, serr)
			}
			if err != nil {
				continue
			}
			wire := make([]byte, frameWireBytes(len(fr.words)))
			putFrame(wire, fr)
			if !bytes.HasPrefix(data, wire) {
				t.Fatalf("frame %+v re-encodes to %x, was read from %x", fr, wire, data)
			}
			if ref := appendFrameReference(nil, fr); !bytes.Equal(wire, ref) {
				t.Fatalf("frame %+v: in-place encoding %x, reference %x", fr, wire, ref)
			}
			if again := encodeFrame(nil, sfr); !bytes.Equal(again, wire) {
				t.Fatalf("byte-at-a-time read parsed %+v, whole read %+v", sfr, fr)
			}
		}
	})
}

// --- mesh helpers ---

// capture is a test Handler recording deliveries and failures on channels.
type capture struct {
	msgs  chan capturedMsg
	fails chan capturedFail
}

type capturedMsg struct {
	src, tag int
	words    []mpi.Word
}

type capturedFail struct {
	rank  int
	cause error
}

func newCapture() *capture {
	return &capture{msgs: make(chan capturedMsg, 1024), fails: make(chan capturedFail, 16)}
}

func (c *capture) Deliver(src, tag int, words []mpi.Word) {
	c.msgs <- capturedMsg{src: src, tag: tag, words: append([]mpi.Word(nil), words...)}
}

func (c *capture) PeerFailed(rank int, cause error) {
	c.fails <- capturedFail{rank: rank, cause: cause}
}

// fastConfig keeps failure-detection tests quick.
func fastConfig() Config {
	return Config{
		HeartbeatEvery:  20 * time.Millisecond,
		HeartbeatMisses: 4,
		ConnectTimeout:  5 * time.Second,
		Seed:            42,
	}
}

// newMesh binds n loopback listeners and builds one transport per rank.
// customize tweaks each rank's config (may be nil).
func newMesh(t *testing.T, n int, customize func(rank int, cfg *Config)) []*Transport {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*Transport, n)
	for i := range trs {
		cfg := fastConfig()
		cfg.Rank = i
		cfg.Peers = addrs
		cfg.Listener = lns[i]
		if customize != nil {
			customize(i, &cfg)
		}
		tr, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		trs[i] = tr
	}
	return trs
}

// startMesh starts every transport concurrently (Start blocks on the full
// mesh) and fails the test if any endpoint cannot establish it.
func startMesh(t *testing.T, trs []*Transport, hs []mpi.Handler) {
	t.Helper()
	errs := make([]error, len(trs))
	var wg sync.WaitGroup
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = trs[i].Start(hs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d start: %v", i, err)
		}
	}
}

func handlers(caps []*capture) []mpi.Handler {
	hs := make([]mpi.Handler, len(caps))
	for i := range caps {
		hs[i] = caps[i]
	}
	return hs
}

func newCaptures(n int) []*capture {
	caps := make([]*capture, n)
	for i := range caps {
		caps[i] = newCapture()
	}
	return caps
}

func recvN(t *testing.T, c *capture, n int, within time.Duration) []capturedMsg {
	t.Helper()
	out := make([]capturedMsg, 0, n)
	deadline := time.After(within)
	for len(out) < n {
		select {
		case m := <-c.msgs:
			out = append(out, m)
		case f := <-c.fails:
			t.Fatalf("unexpected peer failure while receiving: rank %d: %v", f.rank, f.cause)
		case <-deadline:
			t.Fatalf("received %d of %d messages within %v", len(out), n, within)
		}
	}
	return out
}

// --- transport behaviour ---

func TestMeshDeliversAllPairs(t *testing.T) {
	const n = 3
	trs := newMesh(t, n, nil)
	caps := newCaptures(n)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			if err := trs[src].Send(dst, src*10+dst, []mpi.Word{mpi.Word(src), mpi.Word(dst)}); err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		got := recvN(t, caps[dst], n-1, 5*time.Second)
		seen := map[int]bool{}
		for _, m := range got {
			if m.tag != m.src*10+dst || len(m.words) != 2 || m.words[0] != mpi.Word(m.src) || m.words[1] != mpi.Word(dst) {
				t.Errorf("rank %d got mangled message %+v", dst, m)
			}
			seen[m.src] = true
		}
		if len(seen) != n-1 {
			t.Errorf("rank %d heard from %d peers, want %d", dst, len(seen), n-1)
		}
	}
}

func TestDialBackoffUntilListenerAppears(t *testing.T) {
	// Rank 1 starts dialing before rank 0 exists; it must retry with backoff
	// and succeed once rank 0 finally listens.
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr0 := ln0.Addr().String()
	ln0.Close() // rank 0 is "not up yet"
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{addr0, ln1.Addr().String()}

	cfg1 := fastConfig()
	cfg1.Rank, cfg1.Peers, cfg1.Listener = 1, addrs, ln1
	tr1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	caps := newCaptures(2)
	startErr := make(chan error, 1)
	go func() { startErr <- tr1.Start(caps[1]) }()

	time.Sleep(150 * time.Millisecond) // let several dial attempts fail

	lnRe, err := net.Listen("tcp", addr0)
	if err != nil {
		t.Fatalf("relisten on %s: %v", addr0, err)
	}
	cfg0 := fastConfig()
	cfg0.Rank, cfg0.Peers, cfg0.Listener = 0, addrs, lnRe
	tr0, err := New(cfg0)
	if err != nil {
		t.Fatal(err)
	}
	defer tr0.Close()
	defer tr1.Close()
	if err := tr0.Start(caps[0]); err != nil {
		t.Fatalf("rank 0 start: %v", err)
	}
	if err := <-startErr; err != nil {
		t.Fatalf("rank 1 start: %v", err)
	}
	if got := tr1.Net().DialRetries; got == 0 {
		t.Error("rank 1 connected without any recorded dial retries")
	}
	// The late mesh still works.
	if err := tr1.Send(0, 7, []mpi.Word{123}); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, caps[0], 1, 5*time.Second)
	if got[0].src != 1 || got[0].tag != 7 || got[0].words[0] != 123 {
		t.Errorf("got %+v", got[0])
	}
}

func TestConnectionResetRecoversByRetransmission(t *testing.T) {
	const msgs = 10
	plan := &NetFaultPlan{Resets: []Reset{{From: 1, To: 0, AfterSends: 3}}}
	trs := newMesh(t, 2, func(rank int, cfg *Config) { cfg.Faults = plan })
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for i := 0; i < msgs; i++ {
		if err := trs[1].Send(0, i, []mpi.Word{mpi.Word(i * i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := recvN(t, caps[0], msgs, 10*time.Second)
	for i, m := range got {
		if m.tag != i || m.words[0] != mpi.Word(i*i) {
			t.Errorf("message %d: got tag %d words %v — delivery must stay ordered and exactly-once", i, m.tag, m.words)
		}
	}
	select {
	case m := <-caps[0].msgs:
		t.Errorf("duplicate delivery after reset: %+v", m)
	case <-time.After(100 * time.Millisecond):
	}
	if r := trs[1].Net().Reconnects; r == 0 {
		t.Error("no reconnect recorded despite the injected reset")
	}
}

func TestCorruptedFrameRejectedAndRecovered(t *testing.T) {
	const msgs = 5
	plan := &NetFaultPlan{CorruptFrames: []CorruptFrame{{From: 1, To: 0, AfterSends: 2}}}
	trs := newMesh(t, 2, func(rank int, cfg *Config) {
		cfg.Faults = plan
		// Hold-back keeps acked frames in the outbox (no checkpoint ever moves
		// the floor), so the bytes the retransmission wrote can be read below.
		cfg.ReplaceTimeout = time.Minute
	})
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for i := 0; i < msgs; i++ {
		if err := trs[1].Send(0, i, []mpi.Word{mpi.Word(1000 + i)}); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	got := recvN(t, caps[0], msgs, 10*time.Second)
	for i, m := range got {
		if m.tag != i || m.words[0] != mpi.Word(1000+i) {
			t.Errorf("message %d arrived corrupted or out of order: %+v", i, m)
		}
	}
	if c := trs[0].Net().CRCErrors; c == 0 {
		t.Error("receiver recorded no CRC error despite the injected bit flip")
	}
	// The flip was on the wire only: the outbox — what the retransmission
	// wrote, and would write again — holds every frame's clean encoding.
	p := trs[1].peers[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.out) != msgs {
		t.Fatalf("outbox holds %d frames, want all %d held back", len(p.out), msgs)
	}
	for i, o := range p.out {
		clean := encodeFrame(nil, frame{typ: ftData, src: 1, tag: int64(i), seq: uint64(i + 1), words: []mpi.Word{mpi.Word(1000 + i)}})
		if !bytes.Equal(o.enc, clean) {
			t.Errorf("outbox frame %d: %x, want the clean encoding %x", i, o.enc, clean)
		}
	}
}

func TestHeartbeatDeclaresKilledPeerDead(t *testing.T) {
	trs := newMesh(t, 2, nil)
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer trs[0].Close()

	trs[1].Kill() // crash: no flush, no goodbye

	select {
	case f := <-caps[0].fails:
		if f.rank != 1 {
			t.Errorf("rank %d declared dead, want 1", f.rank)
		}
		if !errors.Is(f.cause, mpi.ErrPeerUnreachable) {
			t.Errorf("cause = %v, want ErrPeerUnreachable", f.cause)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("killed peer was never declared dead")
	}
	if m := trs[0].Net().HeartbeatMisses; m == 0 {
		t.Error("no heartbeat misses recorded on the way to the declaration")
	}
	// Sends to a declared-dead peer fail fast with the structured cause.
	if err := trs[0].Send(1, 0, []mpi.Word{1}); !errors.Is(err, mpi.ErrPeerUnreachable) {
		t.Errorf("send to dead peer: err = %v, want ErrPeerUnreachable", err)
	}
}

func TestGracefulCloseIsNotACrash(t *testing.T) {
	trs := newMesh(t, 2, nil)
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer trs[0].Close()

	// A queued message must still flush before the goodbye.
	if err := trs[1].Send(0, 3, []mpi.Word{77}); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Close(); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, caps[0], 1, 5*time.Second)
	if got[0].words[0] != 77 {
		t.Errorf("got %+v", got[0])
	}
	// Well past the failure-detection window: the departed peer must not be
	// declared dead, and sends to it must be silently dropped, not errors.
	time.Sleep(8 * fastConfig().HeartbeatEvery)
	select {
	case f := <-caps[0].fails:
		t.Fatalf("clean departure misdetected as failure: %+v", f)
	default:
	}
	if err := trs[0].Send(1, 0, []mpi.Word{1}); err != nil {
		t.Errorf("send to departed peer: %v, want silent drop", err)
	}
}

func TestPartitionSurfacesOnBothSides(t *testing.T) {
	plan := &NetFaultPlan{Partitions: []Partition{{A: []int{0}, B: []int{1}, AfterSends: 1}}}
	trs := newMesh(t, 2, func(rank int, cfg *Config) { cfg.Faults = plan })
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Kill() // the partition would make graceful flushes time out
		}
	}()
	// Each side's first data frame passes and arms its side of the cut.
	if err := trs[0].Send(1, 0, []mpi.Word{1}); err != nil {
		t.Fatal(err)
	}
	if err := trs[1].Send(0, 0, []mpi.Word{2}); err != nil {
		t.Fatal(err)
	}
	for rank, c := range caps {
		select {
		case f := <-c.fails:
			if f.rank != 1-rank || !errors.Is(f.cause, mpi.ErrPeerUnreachable) {
				t.Errorf("rank %d: failure %+v, want peer %d unreachable", rank, f, 1-rank)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("rank %d never declared its partitioned peer dead", rank)
		}
	}
}

func TestSlowLinkDelaysButDelivers(t *testing.T) {
	plan := &NetFaultPlan{SlowLinks: []SlowLink{{From: 1, To: 0, Delay: 30 * time.Millisecond}}}
	trs := newMesh(t, 2, func(rank int, cfg *Config) {
		cfg.Faults = plan
		// Keep the detector from tripping on heartbeats sharing the slow link.
		cfg.HeartbeatEvery = 50 * time.Millisecond
	})
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	start := time.Now()
	if err := trs[1].Send(0, 0, []mpi.Word{5}); err != nil {
		t.Fatal(err)
	}
	got := recvN(t, caps[0], 1, 5*time.Second)
	if got[0].words[0] != 5 {
		t.Errorf("got %+v", got[0])
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivery took %v, the slow link should add ~30ms", elapsed)
	}
}

// --- the full mpi runtime over TCP ---

// runWorldOverTCP executes body on n single-rank worlds connected by real
// loopback TCP, returning each rank's error.
func runWorldOverTCP(t *testing.T, n int, customize func(rank int, cfg *Config), body func(c *mpi.Comm) error) ([]*mpi.World, []error) {
	t.Helper()
	trs := newMesh(t, n, customize)
	worlds := make([]*mpi.World, n)
	for i, tr := range trs {
		worlds[i] = mpi.NewDistributedWorld(tr)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = worlds[i].RunLocal(body)
		}(i)
	}
	wg.Wait()
	for _, tr := range trs {
		tr.Close()
	}
	return worlds, errs
}

func TestCollectivesOverTCPMatchInProcess(t *testing.T) {
	const n = 4
	type result struct {
		sum    mpi.Word
		vec    []mpi.Word
		gather []mpi.Word
		a2a    []mpi.Word
	}
	body := func(c *mpi.Comm) (result, error) {
		var r result
		r.sum = c.Allreduce(mpi.Word(c.Rank()+1), mpi.OpSum)
		mine := []mpi.Word{mpi.Word(c.Rank()), mpi.Word(c.Rank() * c.Rank())}
		r.vec = c.AllreduceVec(mine, make([]mpi.Word, len(mine)), mpi.OpMax)
		r.gather = c.Allgather(mpi.Word(c.Rank() * 3))
		out := make([][]mpi.Word, c.Size())
		for d := range out {
			out[d] = []mpi.Word{mpi.Word(c.Rank()*10 + d)}
		}
		in := c.Alltoallv(out)
		for s := range in {
			r.a2a = append(r.a2a, in[s]...)
		}
		c.Barrier()
		return r, nil
	}

	// Reference run on the in-process transport.
	ref := make([]result, n)
	w := mpi.NewWorld(n)
	if err := w.Run(func(c *mpi.Comm) error {
		r, err := body(c)
		ref[c.Rank()] = r
		return err
	}); err != nil {
		t.Fatal(err)
	}

	got := make([]result, n)
	_, errs := runWorldOverTCP(t, n, nil, func(c *mpi.Comm) error {
		r, err := body(c)
		got[c.Rank()] = r
		return err
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	for rank := range got {
		if fmt.Sprintf("%+v", got[rank]) != fmt.Sprintf("%+v", ref[rank]) {
			t.Errorf("rank %d diverged over TCP:\n got %+v\nwant %+v", rank, got[rank], ref[rank])
		}
	}
}

func TestWorldOverTCPSurvivesResetsAndCorruption(t *testing.T) {
	// Wire faults that the transport repairs transparently must leave the
	// computation bit-identical: same allreduce results as a clean run.
	const n, rounds = 3, 20
	plan := &NetFaultPlan{
		Resets:        []Reset{{From: 1, To: 0, AfterSends: 5}, {From: 2, To: 0, AfterSends: 9}},
		CorruptFrames: []CorruptFrame{{From: 2, To: 1, AfterSends: 3}},
	}
	sums := make([]mpi.Word, n)
	_, errs := runWorldOverTCP(t, n, func(rank int, cfg *Config) { cfg.Faults = plan }, func(c *mpi.Comm) error {
		var acc mpi.Word
		for i := 0; i < rounds; i++ {
			c.SetEpoch(i)
			acc += c.Allreduce(mpi.Word(c.Rank()+i), mpi.OpSum)
		}
		sums[c.Rank()] = acc
		return nil
	})
	for rank, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", rank, err)
		}
	}
	var want mpi.Word
	for i := 0; i < rounds; i++ {
		var round mpi.Word
		for r := 0; r < n; r++ {
			round += mpi.Word(r + i)
		}
		want += round
	}
	for rank, got := range sums {
		if got != want {
			t.Errorf("rank %d accumulated %d, want %d (faults must be invisible to the computation)", rank, got, want)
		}
	}
}

func TestWorldOverTCPKilledRankFailsSurvivors(t *testing.T) {
	// One process dies mid-run (transport killed, its rank wedged): every
	// surviving rank's RunLocal must return a structured ErrRankFailed
	// naming the dead rank — the contract supervised recovery builds on.
	const n = 3
	trs := newMesh(t, n, nil)
	worlds := make([]*mpi.World, n)
	for i, tr := range trs {
		worlds[i] = mpi.NewDistributedWorld(tr)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = worlds[i].RunLocal(func(c *mpi.Comm) error {
				for round := 0; ; round++ {
					c.SetEpoch(round)
					if c.Rank() == 2 && round == 3 {
						trs[2].Kill() // crash this process's wire mid-fixpoint
						return errors.New("rank 2 crashed")
					}
					c.Allreduce(1, mpi.OpSum)
				}
			})
		}(i)
	}
	wg.Wait()
	for rank := 0; rank < 2; rank++ {
		rf, ok := mpi.AsRankFailure(errs[rank])
		if !ok {
			t.Fatalf("rank %d: err = %v, want ErrRankFailed", rank, errs[rank])
		}
		if rf.Rank != 2 || !errors.Is(rf, mpi.ErrPeerUnreachable) {
			t.Errorf("rank %d: failure %+v, want rank 2 unreachable", rank, rf)
		}
	}
	trs[0].Close()
	trs[1].Close()
}

// One fixpoint iteration's worth of collectives over loopback TCP — six
// frames at 2 ranks — in steady state: the sender's encode buffer comes from
// the peer's free list and goes back on the ack, the receiver's payload from
// its mailbox's and goes back after the fold or at the next exchange. The
// mechanism leaves no allocation; acks arrive on their own clock, so a round
// now and then finds a list empty, and the pin allows one heap object per
// round (AllocsPerRun floors the mean) — far below one per frame, which is
// what any per-frame allocation sneaking back in would cost.
func TestLoopbackRoundAllocs(t *testing.T) {
	const warm, runs = 2000, 500
	vec := make([]mpi.Word, 6)
	agreed := [2][]mpi.Word{make([]mpi.Word, 6), make([]mpi.Word, 6)}
	lanes := [2][][]mpi.Word{{nil, make([]mpi.Word, 64)}, {make([]mpi.Word, 64), nil}}
	round := func(c *mpi.Comm) {
		c.Allreduce(1, mpi.OpSum)
		c.AllreduceVec(vec, agreed[c.Rank()], mpi.OpSum)
		c.Alltoallv(lanes[c.Rank()])
	}
	var allocs float64
	_, errs := runWorldOverTCP(t, 2, nil, func(c *mpi.Comm) error {
		// Warm-up fills the free lists: several ack intervals' worth of frames.
		for i := 0; i < warm; i++ {
			round(c)
		}
		if c.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, func() { round(c) })
			return nil
		}
		for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
			round(c)
		}
		return nil
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if allocs > 1 {
		t.Errorf("loopback collective round of 6 frames: %v allocs, want <= 1", allocs)
	}
}
