package mpi

import (
	"errors"
	"strings"
	"testing"
	"time"
)

// joinedErrors unwraps the error World.Run returns into its per-rank parts.
func joinedErrors(t *testing.T, err error) []error {
	t.Helper()
	if err == nil {
		return nil
	}
	u, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return []error{err}
	}
	return u.Unwrap()
}

func TestPanicBecomesRankFailure(t *testing.T) {
	w := NewWorld(4)
	err := w.Run(func(c *Comm) error {
		c.SetEpoch(3)
		if c.Rank() == 1 {
			panic("kaboom")
		}
		c.Barrier() // peers block here; the abort must wake them
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want an ErrRankFailed inside", err)
	}
	if rf.Rank != 1 || rf.Iter != 3 {
		t.Errorf("failure = %+v, want rank 1 at iter 3", rf)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("err %q does not carry the panic value", err)
	}
	// Every rank must report: the failed one with the failure itself, the
	// three survivors with wrapped aborts.
	if parts := joinedErrors(t, err); len(parts) != 4 {
		t.Errorf("got %d rank errors, want 4: %v", len(parts), err)
	}
}

func TestRunJoinsAllRankErrors(t *testing.T) {
	w := NewWorld(4)
	e1, e3 := errors.New("one"), errors.New("three")
	err := w.Run(func(c *Comm) error {
		switch c.Rank() {
		case 1:
			return e1
		case 3:
			return e3
		}
		return nil
	})
	if !errors.Is(err, e1) || !errors.Is(err, e3) {
		t.Fatalf("err = %v, want both rank errors joined", err)
	}
}

func TestInjectedCrashPropagatesToAllRanks(t *testing.T) {
	w := NewWorld(4)
	w.SetFaultPlan(&FaultPlan{
		Seed:    1,
		Crashes: []Crash{{Rank: 2, Iter: AnyIter, Op: "allreduce", After: 1}},
	})
	rounds := 0
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 5; i++ {
			c.SetEpoch(i)
			c.Allreduce(1, OpSum)
			if c.Rank() == 0 {
				rounds = i + 1
			}
		}
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want ErrRankFailed", err)
	}
	if rf.Rank != 2 || rf.Op != "allreduce" || rf.Iter != 1 || !errors.Is(rf, ErrInjectedCrash) {
		t.Errorf("failure = %+v, want injected allreduce crash of rank 2 at iter 1", rf)
	}
	if parts := joinedErrors(t, err); len(parts) != 4 {
		t.Errorf("got %d rank errors, want 4", len(parts))
	}
	if rounds != 1 {
		t.Errorf("rank 0 completed %d rounds before the abort, want 1", rounds)
	}
}

func TestWatchdogConvertsStuckCollective(t *testing.T) {
	w := NewWorld(4)
	w.SetFaultPlan(&FaultPlan{
		Seed:  1,
		Hangs: []Hang{{Rank: 1, Iter: 2, Op: "alltoallv"}},
	})
	w.SetWatchdog(100*time.Millisecond, 100*time.Millisecond)
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 4; i++ {
			c.SetEpoch(i)
			c.Alltoallv(make([][]Word, c.Size()))
		}
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want ErrRankFailed (not a deadlock!)", err)
	}
	if rf.Rank != 1 || rf.Op != "alltoallv" || rf.Iter != 2 || !errors.Is(rf, ErrWatchdogTimeout) {
		t.Errorf("failure = %+v, want watchdog death of rank 1 in alltoallv at iter 2", rf)
	}
	if parts := joinedErrors(t, err); len(parts) != 4 {
		t.Errorf("got %d rank errors, want 4 (every rank must observe the failure)", len(parts))
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("run took %v, the watchdog should fire near its 100ms timeout", waited)
	}
}

func TestWatchdogCatchesEarlyExit(t *testing.T) {
	// A rank that returns early (never reaching a collective its peers are
	// blocked in) used to deadlock the world; the watchdog must declare it.
	w := NewWorld(3)
	w.SetWatchdog(100*time.Millisecond, 100*time.Millisecond)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return nil // skips the barrier
		}
		c.Barrier()
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want ErrRankFailed", err)
	}
	if rf.Rank != 2 || rf.Op != "barrier" {
		t.Errorf("failure = %+v, want rank 2 absent from barrier", rf)
	}
}

// Under the tree schedule the rank that times out is usually not next to
// the hung one: rank 1 waits on its parent 0, which waits on child 2. The
// wait chain must be followed to rank 2 — not the parent that timed out
// waiting for it, and not the receiver.
func TestWatchdogBlamesAbsentRankUnderTree(t *testing.T) {
	w := NewWorld(4)
	w.SetSchedule(ScheduleTree)
	w.SetFaultPlan(&FaultPlan{
		Seed:  1,
		Hangs: []Hang{{Rank: 2, Iter: 1, Op: "allreduce"}},
	})
	w.SetWatchdog(100*time.Millisecond, 100*time.Millisecond)
	err := w.Run(func(c *Comm) error {
		for i := 0; i < 3; i++ {
			c.SetEpoch(i)
			c.Allreduce(1, OpSum)
		}
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want ErrRankFailed", err)
	}
	if rf.Rank != 2 || rf.Op != "allreduce" || rf.Iter != 1 || !errors.Is(rf, ErrWatchdogTimeout) {
		t.Errorf("failure = %+v, want watchdog death of rank 2 in allreduce at iter 1", rf)
	}
	if parts := joinedErrors(t, err); len(parts) != 4 {
		t.Errorf("got %d rank errors, want 4 (every rank must observe the failure)", len(parts))
	}
}

// A rank whose body returned is blamed the moment a hop waits on it, with
// no deadline configured at all; under the tree the hop is rank 2's parent,
// and the other ranks unwind behind it.
func TestEarlyExitUnderTreeBlamedAtOnce(t *testing.T) {
	w := NewWorld(3)
	w.SetSchedule(ScheduleTree)
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 2 {
			return nil // skips the barrier
		}
		c.Barrier()
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want ErrRankFailed", err)
	}
	if rf.Rank != 2 || rf.Op != "barrier" || !errors.Is(rf, ErrWatchdogTimeout) {
		t.Errorf("failure = %+v, want rank 2 absent from barrier", rf)
	}
}

func TestCorruptionFailsCRCWithStructuredError(t *testing.T) {
	// A corrupted hop must never be accepted: the receiver's CRC32C check
	// converts the bit flip into an ErrRankFailed naming the sender and the
	// collective, which every rank observes. Rank 1's first message of an
	// Allreduce is its contribution on the way up to rank 0 under both
	// schedules.
	for _, sched := range testSchedules {
		t.Run(sched.String(), func(t *testing.T) {
			w := NewWorld(4)
			w.SetSchedule(sched)
			w.SetFaultPlan(&FaultPlan{Seed: 9, Corrupts: []Corrupt{{Rank: 1, Iter: AnyIter, After: 0}}})
			err := w.Run(func(c *Comm) error {
				got := c.Allreduce(uint64(c.Rank()+1), OpSum)
				t.Errorf("rank %d: allreduce over a corrupted hop returned %d", c.Rank(), got)
				return nil
			})
			parts := joinedErrors(t, err)
			if len(parts) != 4 {
				t.Fatalf("got %d rank errors, want 4 (every rank must observe the failure): %v", len(parts), err)
			}
			for r, e := range parts {
				rf, ok := AsRankFailure(e)
				if !ok || rf.Rank != 1 || rf.Op != "allreduce" || !errors.Is(rf, ErrCorruptMessage) {
					t.Errorf("rank %d: err = %v, want the CRC failure of rank 1's allreduce hop", r, e)
				}
			}
		})
	}
}

func TestRecvTimeoutOnDroppedMessage(t *testing.T) {
	// Two ranks each wait for a hop from the other before sending theirs, so
	// no message ever arrives — to the receivers, exactly a dropped one. The
	// bounded receive must error out near the watchdog deadline instead of
	// wedging both ranks forever, and with nobody absent (each waits on the
	// other) it blames a receiver with ErrRecvTimeout.
	w := NewWorld(2)
	w.SetWatchdog(50*time.Millisecond, 50*time.Millisecond)
	start := time.Now()
	err := w.Run(func(c *Comm) error {
		c.collRecv("hop", 1-c.Rank(), tagAllreduce)
		t.Errorf("rank %d: receive returned though no message was sent", c.Rank())
		return nil
	})
	rf, ok := AsRankFailure(err)
	if !ok {
		t.Fatalf("err = %v, want ErrRankFailed", err)
	}
	if rf.Op != "hop" || !errors.Is(rf, ErrRecvTimeout) {
		t.Errorf("failure = %+v, want a receive timeout in the hop", rf)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Errorf("run took %v, the receive deadline should fire near 50ms", waited)
	}
}

func TestWorldPoisonedAfterFailure(t *testing.T) {
	w := NewWorld(2)
	_ = w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			panic("die")
		}
		c.Barrier()
		return nil
	})
	err := w.Run(func(c *Comm) error { return nil })
	if err == nil {
		t.Fatal("poisoned world accepted another Run")
	}
}
