package mpi

import (
	"sync/atomic"
	"time"
)

// The watchdog: the world's one deadline for "a collective hop's receive
// stays unmatched". Instead of a fixed timeout the world
// tracks an exponentially weighted moving average of the observed iteration
// time and derives the deadline from it, clamped to a configurable
// [floor, ceil] band. A workload whose iterations take milliseconds converts
// a genuinely stuck collective in a few hundred milliseconds; the same
// binary pointed at a slow network or a straggling rank stretches its
// patience automatically instead of false-positive-killing the laggard.
// Chasing Similarity (PAPERS.md) motivates exactly this: non-uniform link
// costs make any single static timeout either trigger-happy or uselessly
// slow. A fixed deadline is the band with floor = ceiling.

// The deadline is clamp(watchdogMult × EWMA(iteration time), floor, ceil):
// an iteration would have to run 8× slower than the recent average before
// the watchdog suspects it, and each new sample carries a quarter of the
// average's weight.
const (
	watchdogMult  = 8
	watchdogAlpha = 0.25
)

// adaptiveWatchdog is the world's live deadline state. The deadline is read
// lock-free on every receive; it is written only by the timekeeper rank's
// SetEpoch transitions.
type adaptiveWatchdog struct {
	floor, ceil time.Duration
	deadline    atomic.Int64 // current deadline, nanoseconds
	ewma        atomic.Int64 // smoothed iteration time, nanoseconds (0 = no sample)
	lastMark    atomic.Int64 // monotonic-ish mark of the previous epoch transition
}

// observe folds one iteration-time sample (the gap between two epoch
// transitions) into the EWMA and republishes the clamped deadline.
func (ad *adaptiveWatchdog) observe(now int64) {
	last := ad.lastMark.Swap(now)
	if last == 0 {
		return
	}
	d := now - last
	if d <= 0 {
		return
	}
	e := ad.ewma.Load()
	if e == 0 {
		e = d
	} else {
		e = int64(watchdogAlpha*float64(d) + (1-watchdogAlpha)*float64(e))
	}
	ad.ewma.Store(e)
	dl := time.Duration(watchdogMult * e)
	if dl < ad.floor {
		dl = ad.floor
	}
	if dl > ad.ceil {
		dl = ad.ceil
	}
	ad.deadline.Store(int64(dl))
}

// SetWatchdog bounds every receive by an EWMA-derived deadline. A
// collective hop that waits longer declares the rank absent from the
// collective failed with ErrRankFailed{Cause: ErrWatchdogTimeout}
// (in-process; a distributed receiver fails itself with ErrRecvTimeout),
// and every blocked peer receives the failure instead of deadlocking. The
// deadline starts at ceil (pessimistic until the first sample) and tracks
// clamp(8 × EWMA(iteration time), floor, ceil) as the fixpoint driver
// publishes epoch transitions; floor = ceil is a fixed deadline. A
// non-positive floor is 100ms (or ceil when that is smaller). A
// non-positive ceil disables the watchdog (the default). It must be called
// before Run.
func (w *World) SetWatchdog(floor, ceil time.Duration) {
	if ceil <= 0 {
		w.wd = nil
		return
	}
	if floor <= 0 {
		floor = 100 * time.Millisecond
	}
	if floor > ceil {
		floor = ceil
	}
	w.wd = &adaptiveWatchdog{floor: floor, ceil: ceil}
	w.wd.deadline.Store(int64(ceil))
}

// curWatchdog returns the deadline currently in force (0 = no watchdog).
// Every collective hop reads it, so one knob governs every "is that rank
// dead?" decision.
func (w *World) curWatchdog() time.Duration {
	if w.wd == nil {
		return 0
	}
	return time.Duration(w.wd.deadline.Load())
}

// WatchdogDeadline exposes the deadline currently in force (0 = disabled) —
// observability and tests.
func (w *World) WatchdogDeadline() time.Duration { return w.curWatchdog() }

// timekeeper is the rank whose epoch transitions feed the EWMA: rank 0
// in-process (all ranks advance in lockstep anyway), the locally hosted
// rank in distributed mode (each process times its own iterations).
func (w *World) timekeeper() int {
	if w.dist != nil {
		return w.dist.self
	}
	return 0
}
