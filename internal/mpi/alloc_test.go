package mpi

import (
	"testing"
	"time"
)

// roundAllocs measures heap objects per steady-state round at 2 ranks,
// counted across both ranks (AllocsPerRun reads the process-wide counter):
// rank 0 drives the measurement, rank 1 mirrors every call.
func roundAllocs(t *testing.T, watchdog time.Duration, round func(c *Comm)) float64 {
	t.Helper()
	const runs = 200
	w := NewWorld(2)
	w.SetWatchdog(watchdog, watchdog)
	var allocs float64
	err := w.Run(func(c *Comm) error {
		if c.Rank() == 0 {
			allocs = testing.AllocsPerRun(runs, func() { round(c) })
			return nil
		}
		for i := 0; i < runs+1; i++ { // AllocsPerRun adds one warm-up call
			round(c)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return allocs
}

// One fixpoint iteration's worth of collectives — the planner's vote, the
// convergence vector with its digests, one tuple exchange — allocates
// nothing in steady state: the wire copies come from the destination
// mailbox's free list and go back after the fold (hops) or at the next
// exchange (rows); transport dispatch, checksums, meters, staging and result
// headers never cost a heap object.
func TestCollectiveRoundAllocs(t *testing.T) {
	vec := make([]Word, 6)
	agreed := [2][]Word{make([]Word, 6), make([]Word, 6)}
	lanes := [2][][]Word{{nil, make([]Word, 64)}, {make([]Word, 64), nil}}
	got := roundAllocs(t, 0, func(c *Comm) {
		c.Allreduce(1, OpSum)
		c.AllreduceVec(vec, agreed[c.Rank()], OpSum)
		c.Alltoallv(lanes[c.Rank()])
	})
	if got != 0 {
		t.Errorf("collective round at 2 ranks: %v allocs, want 0", got)
	}
}

// Arming the receive deadline must not cost a timer (and its closure) per
// receive: a supervised run bounds every hop of every collective.
func TestBoundedReceiveAllocsNoMoreThanUnbounded(t *testing.T) {
	round := func(c *Comm) { c.Allreduce(1, OpSum) }
	unbounded := roundAllocs(t, 0, round)
	bounded := roundAllocs(t, time.Minute, round)
	if bounded > unbounded {
		t.Errorf("bounded allreduce: %v allocs, unbounded %v — the deadline allocates", bounded, unbounded)
	}
}
