// Package obs defines the streaming observability event model: a small,
// allocation-pooled Event struct emitted live by the runtime (fixpoint
// iterations, phase samples, join-plan votes, checkpoint/recovery activity,
// rank failures) and the Observer interface consumers implement.
//
// The package sits below every runtime layer — it imports nothing but the
// standard library — so internal/metrics, internal/ra, internal/mpi and the
// public paralagg surface can all share one event vocabulary without import
// cycles.
//
// The disabled path is free: every emitter guards with a nil check before
// touching the pool, so a run with no observer performs zero observability
// work and zero allocations. With an observer attached, events are recycled
// through a sync.Pool: an Event is only valid for the duration of the
// OnEvent call, and observers that need to retain data must copy it out
// (Clone does a deep copy).
package obs

import "sync"

// Kind discriminates Event payloads.
type Kind uint8

// Event kinds, in roughly the order a run produces them.
const (
	// KindRunStart opens a run: Ranks carries the world size.
	KindRunStart Kind = iota
	// KindRunEnd closes a run; Err is non-empty when the run failed.
	KindRunEnd
	// KindStratumStart marks a stratum's fixpoint beginning on this rank.
	KindStratumStart
	// KindPhase is one metered phase sample: Phase/Name identify it, Start
	// and End bound it in wall-clock nanoseconds, and Work/Bytes/Msgs/
	// CPUNanos carry the sample's counters. Emitted by the metrics
	// collector on every Record call, so it reflects the exact accounting
	// the post-hoc report is built from — just live.
	KindPhase
	// KindPlan reports one dynamic join-plan vote (Algorithm 1): VotesFor
	// is the number of ranks that voted the left side smaller, OuterLeft
	// the collective outcome, Name the join. A co-partitioned join holds no
	// vote: VotesFor is this rank's own (0 or 1) and OuterLeft its local
	// choice.
	KindPlan
	// KindIteration closes one fixpoint iteration: Changed is the global
	// changed-tuple count, Bytes/Msgs the communication delta of the
	// iteration, Net the transport robustness delta.
	KindIteration
	// KindRelation reports one head relation's distribution at the end of
	// an iteration: Name, Count (global tuples), Changed (global Δ), and
	// PerRank (per-rank tuple counts, Fig. 3's skew signal).
	KindRelation
	// KindCheckpoint marks a completed periodic snapshot (Bytes = payload).
	KindCheckpoint
	// KindRecovery marks a checkpoint restore; Name is "recovery" when the
	// checkpoint was written at this world size, "remap" when it was
	// re-hashed into another, "rejoin" for a hot replacement.
	KindRecovery
	// KindRankFailed reports a structured rank failure: Rank is the failed
	// rank, Name the operation, Err the cause.
	KindRankFailed
	// KindDivergence reports an online integrity failure: a relation's
	// collective state digest disagreed. Rank/Iter locate the detection,
	// Err carries the structured cause. Emitted instead of KindRankFailed
	// when the world aborts on a divergence.
	KindDivergence
	// KindCkptScan reports the outcome of a checkpoint validation scan:
	// Failures and Quarantined carry the cumulative validation-failure and
	// quarantined-generation counts.
	KindCkptScan
	// KindMemPressure reports a memory-budget pressure response: Name is the
	// level ("soft" or "hard"), Work the accounted bytes, Bytes the budget.
	KindMemPressure
	// KindCkptDegraded reports checkpoint storage degradation: persistent
	// saves failed (ENOSPC, short write) and the run fell back to an
	// in-memory sink. Err carries the storage error.
	KindCkptDegraded
	// KindRankRecovering reports that a peer went silent and the world is
	// parked awaiting its hot replacement: Rank is the silent peer, Err the
	// detector's cause. KindRankRecovered follows when a replacement (or
	// the original, merely slow) is re-admitted.
	KindRankRecovering
	// KindRankRecovered reports a peer's re-admission after recovery.
	KindRankRecovered
	// KindSupervisor reports one supervisor lifecycle decision: Name is
	// the action ("restart", "rollback", "degrade", "scratch", "replace",
	// "replace-failed", "gave-up"), Count the recovery attempt ordinal,
	// Rank the lost rank (-1 when not rank-specific), Ranks the world size
	// the next attempt runs at.
	KindSupervisor
)

var kindNames = [...]string{
	KindRunStart:       "run-start",
	KindRunEnd:         "run-end",
	KindStratumStart:   "stratum-start",
	KindPhase:          "phase",
	KindPlan:           "plan",
	KindIteration:      "iteration",
	KindRelation:       "relation",
	KindCheckpoint:     "checkpoint",
	KindRecovery:       "recovery",
	KindRankFailed:     "rank-failed",
	KindDivergence:     "divergence",
	KindCkptScan:       "ckpt-scan",
	KindMemPressure:    "mem-pressure",
	KindCkptDegraded:   "ckpt-degraded",
	KindRankRecovering: "rank-recovering",
	KindRankRecovered:  "rank-recovered",
	KindSupervisor:     "supervisor",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// NetStats mirrors the transport robustness counters (mpi.NetStats) without
// importing the mpi package. Fields are deltas for the event's window.
type NetStats struct {
	FramesSent      int64
	FramesRecv      int64
	DialRetries     int64
	Reconnects      int64
	Retransmits     int64
	DupsDropped     int64
	HeartbeatMisses int64
	CRCErrors       int64
	// ThrottleStalls is the window's count of sends blocked by flow
	// control; OutboxPeakFrames is the running high-water mark of
	// unacknowledged frames buffered for any single peer (a gauge).
	ThrottleStalls   int64
	OutboxPeakFrames int64
	// PeerBytesSent/PeerBytesRecv are the window's per-peer payload byte
	// deltas, indexed by rank (nil when the transport does not track them).
	// They feed the /metrics per-peer gauges.
	PeerBytesSent []int64
	PeerBytesRecv []int64
}

// Event is one observability record. Which fields are meaningful depends on
// Kind (see the Kind constants). Events are pooled: they are valid only for
// the duration of Observer.OnEvent, and must be Cloned to be retained.
type Event struct {
	Kind    Kind
	Rank    int // emitting rank; -1 for world-level events
	Stratum int
	Iter    int

	Phase int    // metrics.Phase ordinal (KindPhase)
	Name  string // phase / relation / join / op name

	Start, End int64 // wall-clock UnixNano span (KindPhase, KindIteration)

	Work     int64
	Bytes    int64
	Msgs     int64
	CPUNanos int64
	Allocs   int64

	Changed uint64 // global changed-tuple count
	Count   uint64 // global tuple count (KindRelation)
	PerRank []int  // per-rank tuple counts (KindRelation); pooled backing

	VotesFor  uint64 // ranks voting left-outer (KindPlan)
	OuterLeft bool   // plan outcome (KindPlan)

	Ranks int    // world size (KindRunStart)
	Err   string // failure cause (KindRankFailed, KindDivergence, KindRunEnd)

	Failures    int64 // cumulative checkpoint validation failures (KindCkptScan)
	Quarantined int64 // cumulative quarantined generations (KindCkptScan)

	Net NetStats // transport robustness delta (KindIteration)
}

// Clone deep-copies the event so it may outlive OnEvent.
func (e *Event) Clone() *Event {
	c := *e
	c.PerRank = append([]int(nil), e.PerRank...)
	c.Net.PeerBytesSent = append([]int64(nil), e.Net.PeerBytesSent...)
	c.Net.PeerBytesRecv = append([]int64(nil), e.Net.PeerBytesRecv...)
	return &c
}

// Observer receives runtime events. Implementations must be safe for
// concurrent use: with an in-process world every rank goroutine emits, and
// events arrive interleaved. OnEvent must not retain e (Clone to keep it)
// and should return quickly — it runs inline on the rank's critical path.
//
// Observation can change the collective schedule (per-rank distribution
// events perform an allgather), so every rank of a world must agree on
// whether an observer is attached — Exec guarantees this for in-process
// worlds; distributed processes must pass consistent configs.
type Observer interface {
	OnEvent(e *Event)
}

// Func adapts a function to the Observer interface.
type Func func(e *Event)

// OnEvent implements Observer.
func (f Func) OnEvent(e *Event) { f(e) }

// AttemptAware is implemented by observers that track supervised restarts:
// the supervisor calls OnAttempt before each attempt (0 = initial run) so
// the observer can re-register counters or open a new trace track cleanly.
type AttemptAware interface {
	OnAttempt(attempt int)
}

var pool = sync.Pool{New: func() any { return new(Event) }}

// Get returns a zeroed Event from the pool. Callers fill it and hand it to
// Emit, which recycles it after delivery.
func Get() *Event {
	e := pool.Get().(*Event)
	per := e.PerRank[:0]
	*e = Event{PerRank: per}
	return e
}

// Emit delivers e to o (when o is non-nil) and returns e to the pool. The
// observer must not retain e past OnEvent.
func Emit(o Observer, e *Event) {
	if o != nil {
		o.OnEvent(e)
	}
	pool.Put(e)
}

// Tee fans events out to several observers in order; nil entries are
// skipped. A Tee of zero or one live observers collapses to that observer.
func Tee(os ...Observer) Observer {
	var live []Observer
	for _, o := range os {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return tee(live)
}

type tee []Observer

// OnEvent implements Observer.
func (t tee) OnEvent(e *Event) {
	for _, o := range t {
		o.OnEvent(e)
	}
}

// OnAttempt implements AttemptAware by forwarding to every member that
// implements it.
func (t tee) OnAttempt(attempt int) {
	for _, o := range t {
		if aa, ok := o.(AttemptAware); ok {
			aa.OnAttempt(attempt)
		}
	}
}
