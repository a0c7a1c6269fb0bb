package tcp

import (
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"paralagg/internal/mpi"
	"paralagg/internal/resource"
)

// Flow-control regression tests: the per-peer outbox of unacknowledged
// frames must stay within the send window no matter how the receiver
// behaves, and the receiver-advertised credit must throttle senders.

// fakeSilentPeer acts rank 0 of a two-rank mesh at the wire level: it
// completes the hello handshake, keeps reading (so TCP itself never pushes
// back), but never acks — no heartbeats, nothing. The pathological receiver
// the outbox bound exists for.
func fakeSilentPeer(t *testing.T, ln net.Listener, stop <-chan struct{}) {
	t.Helper()
	conn, err := ln.Accept()
	if err != nil {
		return
	}
	go func() {
		<-stop
		conn.Close()
	}()
	var scratch []byte
	hello, err := readFrame(conn, &scratch, maxFrameBytes)
	if err != nil || hello.typ != ftHello {
		t.Errorf("fake peer: bad hello: %+v err=%v", hello, err)
		conn.Close()
		return
	}
	reply := encodeFrame(nil, frame{typ: ftHello, src: 0, tag: helloMagic, seq: 0})
	if _, err := conn.Write(reply); err != nil {
		conn.Close()
		return
	}
	for {
		if _, err := readFrame(conn, &scratch, maxFrameBytes); err != nil {
			return
		}
	}
}

func TestNeverAckingPeerCannotGrowOutboxPastWindow(t *testing.T) {
	const window = 8
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrs := []string{ln0.Addr().String(), ln1.Addr().String()}
	stop := make(chan struct{})
	defer close(stop)
	go fakeSilentPeer(t, ln0, stop)

	cfg := fastConfig()
	cfg.Rank, cfg.Peers, cfg.Listener = 1, addrs, ln1
	cfg.SendWindow = window
	cfg.SendStallTimeout = 250 * time.Millisecond
	// Keep the failure detector out of the way: the stall deadline, not
	// heartbeat loss, must be what unblocks the sender.
	cfg.PeerTimeout = 1000 * cfg.HeartbeatEvery
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	caps := newCaptures(2)
	if err := tr.Start(caps[1]); err != nil {
		t.Fatalf("start: %v", err)
	}
	defer tr.Kill()

	acct := resource.NewAccountant(0)
	tr.SetAccountant(acct)

	// The first `window` sends must queue freely; the next one must block
	// and eventually fail structurally instead of growing the outbox.
	for i := 0; i < window; i++ {
		if err := tr.Send(0, 7, []mpi.Word{mpi.Word(i)}); err != nil {
			t.Fatalf("send %d within the window: %v", i, err)
		}
	}
	start := time.Now()
	err = tr.Send(0, 7, []mpi.Word{99})
	if err == nil {
		t.Fatal("send past the window against a never-acking peer succeeded")
	}
	if !errors.Is(err, mpi.ErrPeerUnreachable) {
		t.Fatalf("stalled send error %v does not wrap ErrPeerUnreachable", err)
	}
	if d := time.Since(start); d < cfg.SendStallTimeout/2 {
		t.Fatalf("stalled send returned after %v, before the stall deadline could fire", d)
	}
	n := tr.Net()
	if n.OutboxPeakFrames > window {
		t.Fatalf("outbox peak %d frames exceeds window %d", n.OutboxPeakFrames, window)
	}
	if n.ThrottleStalls == 0 {
		t.Fatal("no throttle stall recorded for a blocked send")
	}
	// The outbox accountant must hold exactly the retained window, not the
	// attempted traffic (the stalled frame was never queued).
	if got, want := acct.UsedBytes(), int64(window*(1+frameOverheadWords)*resource.WordBytes); got != want {
		t.Fatalf("accounted outbox %d bytes, want %d", got, want)
	}
}

func TestAdvertisedWindowThrottlesSender(t *testing.T) {
	const (
		recvWindow = 4
		msgs       = 40
	)
	trs := newMesh(t, 2, func(rank int, cfg *Config) {
		if rank == 0 {
			cfg.SendWindow = recvWindow // rank 0's receive capacity
		}
		cfg.SendStallTimeout = 5 * time.Second
	})
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()

	// Let a heartbeat deliver rank 0's advertised credit before bursting.
	time.Sleep(4 * trs[0].cfg.HeartbeatEvery)

	var wg sync.WaitGroup
	wg.Add(1)
	var sendErr error
	go func() {
		defer wg.Done()
		for i := 0; i < msgs; i++ {
			if err := trs[1].Send(0, 3, []mpi.Word{mpi.Word(i)}); err != nil {
				sendErr = err
				return
			}
		}
	}()
	got := recvN(t, caps[0], msgs, 10*time.Second)
	wg.Wait()
	if sendErr != nil {
		t.Fatalf("send: %v", sendErr)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	n := trs[1].Net()
	if n.OutboxPeakFrames > recvWindow {
		t.Fatalf("sender outbox peaked at %d frames despite advertised window %d", n.OutboxPeakFrames, recvWindow)
	}
	if n.ThrottleStalls == 0 {
		t.Fatal("a burst 10x the advertised window never stalled — flow control not engaging")
	}
}

func TestSlowConsumerFaultThrottlesButDelivers(t *testing.T) {
	const msgs = 24
	faults := &NetFaultPlan{SlowConsumers: []SlowConsumer{{Rank: 0, Delay: time.Millisecond, Window: 4}}}
	trs := newMesh(t, 2, func(rank int, cfg *Config) {
		cfg.Faults = faults
		cfg.SendStallTimeout = 5 * time.Second
	})
	caps := newCaptures(2)
	startMesh(t, trs, handlers(caps))
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	time.Sleep(4 * trs[0].cfg.HeartbeatEvery) // let the narrowed advert arrive

	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if err := trs[1].Send(0, 5, []mpi.Word{mpi.Word(i)}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	got := recvN(t, caps[0], msgs, 10*time.Second)
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	if len(got) != msgs {
		t.Fatalf("delivered %d of %d", len(got), msgs)
	}
	if n := trs[1].Net(); n.OutboxPeakFrames > 4 {
		t.Fatalf("sender outbox peaked at %d frames despite slow-consumer window 4", n.OutboxPeakFrames)
	}
}

// TestFrameAckedMidWriteIsRecycled drops a frame while the writer has it
// pinned on the wire: the bytes must stay off the free list until the write
// returns, and then land on it instead of going to the collector.
func TestFrameAckedMidWriteIsRecycled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastConfig()
	cfg.Rank, cfg.Peers, cfg.Listener = 1, []string{"127.0.0.1:1", ln.Addr().String()}, ln
	tr, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	p := tr.peers[0]
	words := []mpi.Word{1, 2, 3}
	p.mu.Lock()
	enc := p.free.Get(frameWireBytes(len(words))) // as Send takes it
	putFrame(enc, frame{typ: ftData, src: 1, tag: 7, seq: 1, words: words})
	p.gen, p.out = 1, []outFrame{{seq: 1, enc: enc}}
	p.mu.Unlock()

	// net.Pipe is unbuffered: the write blocks until the far end reads, so
	// the frame stays pinned for as long as the test likes.
	near, far := net.Pipe()
	defer near.Close()
	defer far.Close()
	done := make(chan error, 1)
	go func() { done <- p.writeData(near, 1, 1, len(enc)) }()
	for pinned := false; !pinned; {
		p.mu.Lock()
		pinned = p.writing == 1
		p.mu.Unlock()
		time.Sleep(time.Millisecond)
	}
	p.mu.Lock()
	p.ackLocked(1)
	if len(p.out) != 0 {
		t.Fatalf("ack left %d frames in the outbox", len(p.out))
	}
	if got := p.free.Get(len(enc)); &got[0] == &enc[0] {
		t.Fatal("a frame still on the wire was handed to the free list")
	}
	p.mu.Unlock()

	if _, err := io.ReadFull(far, make([]byte, len(enc))); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if got := p.free.Get(len(enc)); &got[0] != &enc[0] {
		t.Fatal("the frame acked mid-write never reached the free list")
	}
}
