package mpi

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// A take on a world that spins still fails at its deadline: the deadline
// counts from the take's first failed poll, so the spin does not lengthen
// it. The spin here outlasts the test, so the timeout can only come from a
// spin pass, and the take never parks (its timer is never armed).
func TestSpinningTakeTimesOutAtDeadline(t *testing.T) {
	const timeout = 20 * time.Millisecond
	w := NewWorld(2)
	w.spin = time.Hour
	box := w.boxes[1]
	type result struct {
		re   *recvError
		took time.Duration
	}
	got := make(chan result, 1)
	go func() {
		t0 := time.Now()
		_, re := box.take(0, 7, timeout)
		got <- result{re, time.Since(t0)}
	}()
	var re *recvError
	var took time.Duration
	select {
	case r := <-got:
		re, took = r.re, r.took
	case <-time.After(5 * time.Second):
		t.Fatalf("take with a %v timeout still waiting after 5s: the spin does not count toward the deadline", timeout)
	}
	if re == nil || !re.timeout {
		t.Fatalf("take from a silent sender = %+v, want a timeout", re)
	}
	if took < timeout || took > timeout+time.Second {
		t.Fatalf("take timed out after %v, want %v plus slack", took, timeout)
	}
	if box.timer != nil {
		t.Fatal("the take armed its timer: it parked instead of timing out inside the spin")
	}
}

// A world aborted while its taker spins unwinds the taker with the abort as
// its error. The spin outlasts the test, so the taker sees the abort on a
// spin pass, not through the wake-up fail sends.
func TestSpinningTakeUnwindsOnAbort(t *testing.T) {
	w := NewWorld(2)
	w.spin = time.Hour
	spinning := make(chan struct{})
	got := make(chan *recvError, 1)
	go func() {
		close(spinning)
		_, re := w.boxes[1].take(0, 7, 0)
		got <- re
	}()
	<-spinning
	// Not a synchronisation: the take must unwind with the abort whenever
	// it lands. The pause only lets the taker reach its spin first, which
	// is the case under test.
	time.Sleep(time.Millisecond)
	rf := &ErrRankFailed{Rank: 0, Op: "test", Cause: errors.New("injected")}
	w.fail(rf)
	w.rankExited(0, rf)
	select {
	case re := <-got:
		if re == nil || re.abort != rf {
			t.Fatalf("spinning take unwound with %+v, want the abort %v", re, rf)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("spinning take did not unwind after the world aborted")
	}
}

// spinStub is a transport that is never started: enough to build a
// distributed world.
type spinStub struct{ size int }

func (s spinStub) Self() int                          { return 0 }
func (s spinStub) Size() int                          { return s.size }
func (s spinStub) Send(dest, tag int, w []Word) error { return nil }
func (s spinStub) Start(h Handler) error              { return nil }
func (s spinStub) Close() error                       { return nil }
func (s spinStub) Net() NetStats                      { return NetStats{} }

// A take spins only in an in-process world whose ranks fit in GOMAXPROCS:
// a distributed world's messages come through the transport's reader,
// which spinning ranks would starve, and with more ranks than Ps a spinner
// holds the P its sender needs.
func TestTakeSpinsOnlyWhereRanksHaveCores(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	procs := runtime.GOMAXPROCS(0)
	if got := NewWorld(2).spinBound(); got != takeSpin {
		t.Errorf("in-process world of 2 ranks at GOMAXPROCS %d spins %v, want %v", procs, got, takeSpin)
	}
	if got := NewDistributedWorld(spinStub{size: 2}).spinBound(); got != 0 {
		t.Errorf("distributed world spins %v, want 0", got)
	}
	if got := NewWorld(procs + 1).spinBound(); got != 0 {
		t.Errorf("in-process world of %d ranks at GOMAXPROCS %d spins %v, want 0", procs+1, procs, got)
	}
	w := NewWorld(2)
	if err := w.Run(func(c *Comm) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if w.spin != takeSpin {
		t.Errorf("Run left the world's spin at %v, want %v", w.spin, takeSpin)
	}
}
