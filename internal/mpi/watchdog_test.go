package mpi

import (
	"testing"
	"time"
)

// The adaptive watchdog starts pessimistic: until the first iteration-time
// sample exists, the deadline in force is the ceiling.
func TestAdaptiveWatchdogStartsAtCeiling(t *testing.T) {
	w := NewWorld(2)
	w.SetWatchdog(0, 3*time.Second)
	if got := w.WatchdogDeadline(); got != 3*time.Second {
		t.Fatalf("initial deadline = %v, want the ceiling 3s", got)
	}
}

// The ceiling is what turns the watchdog on: without one there is no
// deadline, whatever the floor says.
func TestAdaptiveWatchdogRequiresCeiling(t *testing.T) {
	w := NewWorld(2)
	w.SetWatchdog(time.Second, time.Second)
	w.SetWatchdog(time.Second, 0)
	if got := w.WatchdogDeadline(); got != 0 {
		t.Fatalf("deadline with a zero ceiling = %v, want 0 (off)", got)
	}
}

// Fast iterations must pull the deadline down from the ceiling toward
// clamp(8 × EWMA, floor, ceil): epoch transitions microseconds apart with
// a 1ms floor land the deadline on the floor, far below the 10s ceiling.
func TestAdaptiveWatchdogDeadlineTightens(t *testing.T) {
	w := NewWorld(2)
	w.SetWatchdog(time.Millisecond, 10*time.Second)
	err := w.Run(func(c *Comm) error {
		for iter := 1; iter <= 6; iter++ {
			c.SetEpoch(iter)
			c.Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	got := w.WatchdogDeadline()
	if got >= 10*time.Second {
		t.Fatalf("deadline stayed at the ceiling (%v) after fast iterations", got)
	}
	if got < time.Millisecond {
		t.Fatalf("deadline %v fell below the 1ms floor", got)
	}
}

// Only genuine epoch transitions feed the EWMA: republishing the same
// iteration number must not shrink the observed iteration time.
func TestAdaptiveWatchdogIgnoresRepeatedEpoch(t *testing.T) {
	w := NewWorld(1)
	w.SetWatchdog(time.Nanosecond, 10*time.Second)
	err := w.Run(func(c *Comm) error {
		c.SetEpoch(1)
		time.Sleep(20 * time.Millisecond)
		c.SetEpoch(2) // one real sample: ~20ms
		for i := 0; i < 100; i++ {
			c.SetEpoch(2) // no transition, no sample
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// One ~20ms sample with the 8× multiplier puts the deadline well above 20ms; had
	// the repeated SetEpoch(2) calls fed ~0ns samples, the EWMA would have
	// collapsed toward the floor.
	if got := w.WatchdogDeadline(); got < 20*time.Millisecond {
		t.Fatalf("deadline %v collapsed — repeated epoch publishes fed the EWMA", got)
	}
}

// A throttled-but-live world must not be declared dead: when backpressure
// (a flow-controlled sender stalling on a slow receiver) stretches
// iteration times gradually, the EWMA follows the observed pace and the
// deadline extends instead of firing a spurious ErrRankFailed. The run
// starts fast — tightening the deadline well below the ceiling — then slows
// ~2× per iteration, each step inside the 8× headroom of the deadline
// the previous pace set.
func TestAdaptiveWatchdogExtendsUnderBackpressure(t *testing.T) {
	w := NewWorld(2)
	w.SetWatchdog(time.Millisecond, 10*time.Second)
	var tightened, stretched time.Duration
	err := w.Run(func(c *Comm) error {
		for iter := 1; iter <= 4; iter++ {
			c.SetEpoch(iter)
			c.Barrier()
		}
		if c.Rank() == 0 {
			tightened = w.WatchdogDeadline()
		}
		// Backpressure sets in: every iteration takes about twice the last.
		delay := 2 * time.Millisecond
		for iter := 5; iter <= 9; iter++ {
			c.SetEpoch(iter)
			time.Sleep(delay)
			c.Barrier()
			delay *= 2
		}
		if c.Rank() == 0 {
			stretched = w.WatchdogDeadline()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("throttled-but-live world was declared dead: %v", err)
	}
	if tightened >= 10*time.Second {
		t.Fatalf("deadline never tightened below the ceiling during the fast phase (%v)", tightened)
	}
	if stretched <= tightened {
		t.Fatalf("deadline did not extend under backpressure: fast-phase %v, slow-phase %v", tightened, stretched)
	}
	// The last observed iteration was ~32ms; with the 8× multiplier the deadline in
	// force must give at least that much headroom for the next one.
	if stretched < 32*time.Millisecond {
		t.Fatalf("slow-phase deadline %v leaves no headroom for the observed ~32ms pace", stretched)
	}
}

// The EWMA alone (no world, no goroutines) must track a slowing pace
// closely enough that each next iteration fits inside the deadline its
// predecessors set — the no-false-positive property of gradual throttling.
func TestAdaptiveWatchdogEWMATracksGradualSlowdown(t *testing.T) {
	w := NewWorld(1)
	w.SetWatchdog(time.Millisecond, time.Hour)
	ad := w.wd
	now := int64(1)
	ad.observe(now)
	gap := int64(time.Millisecond)
	for i := 0; i < 12; i++ {
		// Before each slower iteration, the deadline set by the past pace
		// must cover it: gap doubles, the 8× multiplier covers a 2× step with room.
		if dl := ad.deadline.Load(); dl < gap {
			t.Fatalf("step %d: deadline %v cannot cover the next %v iteration", i, time.Duration(dl), time.Duration(gap))
		}
		now += gap
		ad.observe(now)
		gap *= 2
	}
}

// AllreduceVec agrees elementwise across ranks in one round — the carrier
// the integrity digests ride on. Covers a multi-rank world, the single-rank
// copy fast path, and aliasing send/recv.
func TestAllreduceVecSum(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		r := Word(c.Rank())
		send := []Word{1, r, 10 * r}
		recv := make([]Word, 3)
		got := c.AllreduceVec(send, recv, OpSum)
		want := []Word{4, 0 + 1 + 2 + 3, 0 + 10 + 20 + 30}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("rank %d: got[%d] = %d, want %d", c.Rank(), i, got[i], want[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceVecMaxAliased(t *testing.T) {
	w := NewWorld(3)
	err := w.Run(func(c *Comm) error {
		vec := []Word{Word(c.Rank()), Word(10 - c.Rank())}
		got := c.AllreduceVec(vec, vec, OpMax) // send aliases recv
		if got[0] != 2 || got[1] != 10 {
			t.Errorf("rank %d: got %v, want [2 10]", c.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceVecSingleRank(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		send := []Word{7, 8, 9}
		recv := make([]Word, 3)
		got := c.AllreduceVec(send, recv, OpSum)
		for i, v := range send {
			if got[i] != v {
				t.Errorf("got[%d] = %d, want %d", i, got[i], v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceVecLengthMismatchPanics(t *testing.T) {
	w := NewWorld(1)
	err := w.Run(func(c *Comm) error {
		defer func() {
			if recover() == nil {
				t.Error("mismatched send/recv lengths did not panic")
			}
		}()
		c.AllreduceVec(make([]Word, 3), make([]Word, 2), OpSum)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
