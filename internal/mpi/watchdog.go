package mpi

import (
	"fmt"
	"sync/atomic"
	"time"
)

// The watchdog: the world's one deadline for "a receive stays unmatched" (a
// collective hop or a user Recv). Instead of a fixed timeout the world
// tracks an exponentially weighted moving average of the observed iteration
// time and derives the deadline from it, clamped to a configurable
// [Floor, Ceil] band. A workload whose iterations take milliseconds converts
// a genuinely stuck collective in a few hundred milliseconds; the same
// binary pointed at a slow network or a straggling rank stretches its
// patience automatically instead of false-positive-killing the laggard.
// Chasing Similarity (PAPERS.md) motivates exactly this: non-uniform link
// costs make any single static timeout either trigger-happy or uselessly
// slow. A fixed deadline is the band with Floor = Ceil (SetWatchdog).

// AdaptiveWatchdog configures the EWMA-of-iteration-time deadline.
type AdaptiveWatchdog struct {
	// Floor is the lower clamp of the derived deadline (default 100ms). Set
	// it above any injected or expected per-message delay: one slow link
	// must not be declared a death.
	Floor time.Duration
	// Ceil is the upper clamp and the deadline in force until the first
	// iteration-time sample exists. Required (> 0) — it bounds how long a
	// genuinely stuck collective can wedge the world.
	Ceil time.Duration
	// Mult scales the EWMA into a deadline: deadline = clamp(Mult × EWMA).
	// Default 8 — an iteration would have to run 8× slower than the recent
	// average before the watchdog suspects it.
	Mult float64
	// Alpha is the EWMA smoothing factor in (0, 1] (default 0.25).
	Alpha float64
}

func (cfg AdaptiveWatchdog) withDefaults() AdaptiveWatchdog {
	if cfg.Floor <= 0 {
		cfg.Floor = 100 * time.Millisecond
	}
	if cfg.Floor > cfg.Ceil {
		cfg.Floor = cfg.Ceil
	}
	if cfg.Mult <= 0 {
		cfg.Mult = 8
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		cfg.Alpha = 0.25
	}
	return cfg
}

// adaptiveWatchdog is the world's live deadline state. The deadline is read
// lock-free on every receive; it is written only by the timekeeper rank's
// SetEpoch transitions.
type adaptiveWatchdog struct {
	cfg      AdaptiveWatchdog
	deadline atomic.Int64 // current deadline, nanoseconds
	ewma     atomic.Int64 // smoothed iteration time, nanoseconds (0 = no sample)
	lastMark atomic.Int64 // monotonic-ish mark of the previous epoch transition
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
		e = int64(ad.cfg.Alpha*float64(d) + (1-ad.cfg.Alpha)*float64(e))
	}
	ad.ewma.Store(e)
	dl := time.Duration(ad.cfg.Mult * float64(e))
	if dl < ad.cfg.Floor {
		dl = ad.cfg.Floor
	}
	if dl > ad.cfg.Ceil {
		dl = ad.cfg.Ceil
	}
	ad.deadline.Store(int64(dl))
}

// SetAdaptiveWatchdog bounds every receive by an EWMA-derived deadline. A
// collective hop that waits longer declares the rank absent from the
// collective failed with ErrRankFailed{Cause: ErrWatchdogTimeout}
// (in-process; a distributed receiver fails itself with ErrRecvTimeout),
// and every blocked peer receives the failure instead of deadlocking. The
// deadline starts at cfg.Ceil (pessimistic until the first sample) and
// tracks clamp(Mult × EWMA(iteration time), Floor, Ceil) as the fixpoint
// driver publishes epoch transitions. It must be called before Run.
func (w *World) SetAdaptiveWatchdog(cfg AdaptiveWatchdog) {
	if cfg.Ceil <= 0 {
		panic(fmt.Sprintf("mpi: adaptive watchdog needs a positive ceiling, got %v", cfg.Ceil))
	}
	ad := &adaptiveWatchdog{cfg: cfg.withDefaults()}
	ad.deadline.Store(int64(ad.cfg.Ceil))
	w.wd = ad
}

// SetWatchdog is the Floor = Ceil spelling of SetAdaptiveWatchdog: the clamp
// pins the deadline at timeout whatever the EWMA says. Zero disables the
// watchdog (the default). It must be called before Run.
func (w *World) SetWatchdog(timeout time.Duration) {
	if timeout <= 0 {
		w.wd = nil
		return
	}
	w.SetAdaptiveWatchdog(AdaptiveWatchdog{Floor: timeout, Ceil: timeout})
}

// curWatchdog returns the deadline currently in force (0 = no watchdog).
// Collective hops and user receives both read it, so one knob governs every
// "is that rank dead?" decision.
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
