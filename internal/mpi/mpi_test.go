package mpi

import (
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunSpawnsAllRanks(t *testing.T) {
	w := NewWorld(8)
	var mask uint64
	err := w.Run(func(c *Comm) error {
		atomic.OrUint64(&mask, 1<<uint(c.Rank()))
		if c.Size() != 8 {
			t.Errorf("Size = %d", c.Size())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if mask != 0xff {
		t.Fatalf("rank mask = %#x, want 0xff", mask)
	}
}

func TestRunReturnsRankError(t *testing.T) {
	w := NewWorld(4)
	boom := errors.New("rank 2 failed")
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want it to wrap %v", err, boom)
	}
}

// The hop primitives every collective is built from: collSend and collRecv
// over the rank's mailbox.

func TestSendRecv(t *testing.T) {
	// A payload crosses intact, and one (src, dst, tag) stream is FIFO.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.collSend("hop", 1, tagAllreduce, []Word{10, 20, 30})
			c.collSend("hop", 1, tagAllreduce, []Word{40})
			return nil
		}
		if words := c.collRecv("hop", 0, tagAllreduce); len(words) != 3 || words[2] != 30 {
			t.Errorf("first hop = %v, want [10 20 30]", words)
		}
		if words := c.collRecv("hop", 0, tagAllreduce); len(words) != 1 || words[0] != 40 {
			t.Errorf("second hop = %v, want [40]", words)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []Word{1}
			c.collSend("hop", 1, tagAllreduce, buf)
			buf[0] = 99 // must not affect the in-flight message
			c.Barrier()
			return nil
		}
		c.Barrier()
		words := c.collRecv("hop", 0, tagAllreduce)
		if words[0] != 1 {
			t.Errorf("payload mutated in flight: %v", words)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRecvMatchesTag(t *testing.T) {
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			c.collSend("hop", 1, tagAllreduce, []Word{111})
			c.collSend("hop", 1, tagAlltoallv, []Word{222})
			return nil
		}
		// Receive out of send order: the second tag first.
		w2 := c.collRecv("hop", 0, tagAlltoallv)
		w1 := c.collRecv("hop", 0, tagAllreduce)
		if w2[0] != 222 || w1[0] != 111 {
			t.Errorf("tag matching broken: %v %v", w1, w2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierOrdering(t *testing.T) {
	w := NewWorld(4)
	var before, after int32
	err := w.Run(func(c *Comm) error {
		atomic.AddInt32(&before, 1)
		c.Barrier()
		if atomic.LoadInt32(&before) != 4 {
			t.Errorf("barrier released before all ranks arrived")
		}
		atomic.AddInt32(&after, 1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != 4 {
		t.Fatalf("after = %d", after)
	}
}

func TestAllreduceOps(t *testing.T) {
	w := NewWorld(5)
	err := w.Run(func(c *Comm) error {
		v := uint64(c.Rank() + 1) // 1..5
		if got := c.Allreduce(v, OpSum); got != 15 {
			t.Errorf("sum = %d", got)
		}
		if got := c.Allreduce(v, OpMax); got != 5 {
			t.Errorf("max = %d", got)
		}
		if got := c.Allreduce(v, OpMin); got != 1 {
			t.Errorf("min = %d", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllgather(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		got := c.Allgather(uint64(c.Rank() * 10))
		for i, v := range got {
			if v != uint64(i*10) {
				t.Errorf("rank %d: allgather[%d] = %d", c.Rank(), i, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAlltoallv(t *testing.T) {
	const n = 4
	w := NewWorld(n)
	err := w.Run(func(c *Comm) error {
		send := make([][]Word, n)
		for j := 0; j < n; j++ {
			// rank r sends j copies of value r*100+j to rank j
			for k := 0; k < j; k++ {
				send[j] = append(send[j], Word(c.Rank()*100+j))
			}
		}
		recv := c.Alltoallv(send)
		for i := 0; i < n; i++ {
			want := c.Rank() // we receive c.Rank() words from each rank
			if len(recv[i]) != want {
				t.Errorf("rank %d: recv[%d] has %d words, want %d", c.Rank(), i, len(recv[i]), want)
			}
			for _, v := range recv[i] {
				if v != Word(i*100+c.Rank()) {
					t.Errorf("rank %d: recv[%d] value %d", c.Rank(), i, v)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestConsecutiveCollectives(t *testing.T) {
	// Stress generation reuse: many collectives back to back with ranks
	// racing ahead.
	w := NewWorld(6)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 200; i++ {
			got := c.Allreduce(uint64(i), OpMax)
			if got != uint64(i) {
				t.Errorf("iter %d: %d", i, got)
				return nil
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsMeterP2PAndCollectives(t *testing.T) {
	// The collective meters count each call and its logical payload once per
	// calling rank; the per-peer meters count the point-to-point hops the
	// schedule moved.
	w := NewWorld(2)
	err := w.Run(func(c *Comm) error {
		c.Barrier()
		c.Allreduce(1, OpSum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 2 ranks × (1 barrier + 1 allreduce) = 4 collective calls; only the
	// allreduces carry a word.
	if tot := w.Stats().Snapshot(); tot != (Totals{Calls: 4, Bytes: 2 * WordBytes}) {
		t.Errorf("totals = %+v, want 4 calls, %d bytes", tot, 2*WordBytes)
	}
	per := w.Stats().PerRank()
	for r, rs := range per {
		if got := rs.Collectives["allreduce"]; got != (CollectiveStats{Calls: 1, Bytes: WordBytes}) {
			t.Errorf("rank %d: allreduce meter = %+v", r, got)
		}
		if got := rs.Collectives["barrier"]; got != (CollectiveStats{Calls: 1}) {
			t.Errorf("rank %d: barrier meter = %+v", r, got)
		}
		if rs.PeerBytesSent[r] != 0 || rs.PeerBytesRecv[r] != 0 {
			t.Errorf("rank %d: self entries %d/%d, want 0", r, rs.PeerBytesSent[r], rs.PeerBytesRecv[r])
		}
	}
	// The flat star at 2 ranks: the allreduce word goes 1 → 0 and back; the
	// barrier's hops are empty.
	if per[1].PeerBytesSent[0] != WordBytes || per[0].PeerBytesRecv[1] != WordBytes ||
		per[0].PeerBytesSent[1] != WordBytes || per[1].PeerBytesRecv[0] != WordBytes {
		t.Errorf("per-peer bytes = %+v / %+v, want one word each way", per[0], per[1])
	}
}

func TestTotalsArithmetic(t *testing.T) {
	a := Totals{Calls: 3, Bytes: 100}
	b := Totals{Calls: 1, Bytes: 40}
	if d := a.Sub(b); d != (Totals{Calls: 2, Bytes: 60}) {
		t.Errorf("Sub = %+v", d)
	}
}

func TestWorldSizeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}
