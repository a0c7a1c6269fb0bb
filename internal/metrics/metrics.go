// Package metrics collects per-rank, per-iteration, per-phase accounting for
// the runtime and turns it into the quantities the paper reports: phase
// breakdowns (Fig. 2), per-iteration profiles (Fig. 7), and strong-scaling
// series (Figs. 4–6).
//
// Because this reproduction runs all ranks on one host, wall-clock time does
// not reflect parallel execution. Instead every kernel records deterministic
// work counters (tuples scanned, tree probes, tuples inserted) and the
// communication substrate records bytes and messages; a configurable cost
// model converts them to simulated time, and the simulated *parallel* time
// of a phase is the maximum over ranks (the critical path), summed over
// iterations. Real CPU time is recorded too and reported alongside.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"paralagg/internal/obs"
)

// Phase identifies one stage of an iteration, in the order the paper's
// Figure 1 presents them.
type Phase int

// The iteration phases. Other is what the baseline engines charge for
// their per-stage scheduling overhead. PARALAGG records nothing there: an
// aggregated record travels straight to its key's owner, so there is no
// sub-bucket gather for the paper's Figure 6 "Other" column to count.
// Checkpoint, Recovery, and Remap meter the fault-tolerance overheads:
// periodic relation snapshots during the fixpoint, same-size snapshot reload
// on restart, and the re-hash/re-merge pass that restores a checkpoint into
// a world of a different size. Integrity meters the per-iteration state
// fingerprinting behind online divergence detection.
const (
	PhasePlanning Phase = iota
	PhaseIntraBucket
	PhaseLocalJoin
	PhaseAllToAll
	PhaseLocalAgg
	PhaseOther
	PhaseCheckpoint
	PhaseRecovery
	PhaseRemap
	PhaseIntegrity
	numPhases
)

// PhaseNames lists the display names in Phase order.
var PhaseNames = [...]string{
	PhasePlanning:    "planning",
	PhaseIntraBucket: "intra-bucket",
	PhaseLocalJoin:   "local-join",
	PhaseAllToAll:    "all-to-all",
	PhaseLocalAgg:    "local-agg",
	PhaseOther:       "other",
	PhaseCheckpoint:  "checkpoint",
	PhaseRecovery:    "recovery",
	PhaseRemap:       "remap",
	PhaseIntegrity:   "integrity",
}

func (p Phase) String() string {
	if p >= 0 && int(p) < len(PhaseNames) {
		return PhaseNames[p]
	}
	return fmt.Sprintf("phase(%d)", int(p))
}

// Sample is one rank's accounting for one phase of one iteration.
type Sample struct {
	Work  int64         // abstract work units: probes, comparisons, inserts
	Bytes int64         // payload bytes this rank moved in the phase
	Msgs  int64         // messages / collective participations
	CPU   time.Duration // measured host time in the phase
}

// Add accumulates s2 into s.
func (s *Sample) Add(s2 Sample) {
	s.Work += s2.Work
	s.Bytes += s2.Bytes
	s.Msgs += s2.Msgs
	s.CPU += s2.CPU
}

// CostModel converts a Sample to simulated nanoseconds. The defaults model a
// commodity cluster: 40 ns per work unit (one B-tree descent level or tuple
// merge is a cache-missy pointer chase, not an ALU op), 0.25 ns per byte
// (~4 GB/s effective per-rank bandwidth), and 2 µs per message (injection +
// software latency). Every link is priced alike: the model has no notion of
// a host boundary.
type CostModel struct {
	WorkUnitNS float64
	ByteNS     float64
	MsgNS      float64
}

// DefaultCostModel is used by all experiments unless overridden.
var DefaultCostModel = CostModel{WorkUnitNS: 40, ByteNS: 0.25, MsgNS: 2000}

// Cost returns the simulated nanoseconds s takes under m.
func (m CostModel) Cost(s Sample) float64 {
	return m.WorkUnitNS*float64(s.Work) + m.ByteNS*float64(s.Bytes) + m.MsgNS*float64(s.Msgs)
}

// Collector accumulates samples for one run. Each rank writes only its own
// slot from its own goroutine; reports are built after the SPMD body
// completes (World.Run's return synchronizes the memory).
type Collector struct {
	ranks []rankSeries

	// observer, when set, receives a live obs.KindPhase event for every
	// Record call — the same accounting the post-hoc report reduces, but
	// streamed as it happens. nil (the default) adds no work and no
	// allocations to the hot path.
	observer obs.Observer
	// stratum is the currently running stratum, published by the program
	// driver so phase events carry it. Ranks run strata in lockstep, so a
	// single atomic shared by all rank goroutines stays consistent.
	stratum atomic.Int32
}

type rankSeries struct {
	iters []IterSamples
}

// IterSamples is one rank's samples of one iteration, by phase.
type IterSamples [numPhases]Sample

// NewCollector returns a collector for a world of the given size.
func NewCollector(size int) *Collector {
	return &Collector{ranks: make([]rankSeries, size)}
}

// Ranks returns the world size the collector was created for.
func (c *Collector) Ranks() int { return len(c.ranks) }

// SetObserver attaches a live event stream to the collector: every Record
// call additionally emits an obs.KindPhase event. Set it before the run
// starts; nil detaches.
func (c *Collector) SetObserver(o obs.Observer) { c.observer = o }

// Observer returns the attached live event stream (nil when disabled). The
// runtime's other emitters (fixpoint loop, join planner) route their events
// through it so one attachment observes everything.
func (c *Collector) Observer() obs.Observer { return c.observer }

// SetStratum publishes the currently running stratum for event attribution.
// Every rank calls it with the same value at each stratum boundary.
func (c *Collector) SetStratum(s int) { c.stratum.Store(int32(s)) }

// Stratum returns the last published stratum.
func (c *Collector) Stratum() int { return int(c.stratum.Load()) }

// Iterations returns the number of iterations recorded (the maximum across
// ranks; ranks always agree because iterations are collectively
// synchronized).
func (c *Collector) Iterations() int {
	n := 0
	for i := range c.ranks {
		if len(c.ranks[i].iters) > n {
			n = len(c.ranks[i].iters)
		}
	}
	return n
}

// Record adds a sample for (rank, iter, phase). Iterations may be recorded
// out of order but are usually appended; the series grows as needed. Only
// rank's own goroutine may call Record for that rank.
func (c *Collector) Record(rank, iter int, phase Phase, s Sample) {
	rs := &c.ranks[rank]
	for len(rs.iters) <= iter {
		rs.iters = append(rs.iters, IterSamples{})
	}
	rs.iters[iter][phase].Add(s)
	if c.observer != nil {
		e := obs.Get()
		e.Kind = obs.KindPhase
		e.Rank, e.Stratum, e.Iter = rank, c.Stratum(), iter
		e.Phase, e.Name = int(phase), PhaseNames[phase]
		e.End = time.Now().UnixNano()
		e.Start = e.End - s.CPU.Nanoseconds()
		e.Work, e.Bytes, e.Msgs = s.Work, s.Bytes, s.Msgs
		e.CPUNanos = s.CPU.Nanoseconds()
		obs.Emit(c.observer, e)
	}
}

// Row returns a copy of rank's samples for iter (zero when none exist).
func (c *Collector) Row(rank, iter int) IterSamples {
	if rs := c.ranks[rank].iters; iter < len(rs) {
		return rs[iter]
	}
	return IterSamples{}
}

// Fold charges what rank recorded for iter since Row returned before to
// iter-1 and drops rows left empty at the end: a step that only agreed the
// previous iteration's changed count is part of that iteration.
func (c *Collector) Fold(rank, iter int, before IterSamples) {
	rs := &c.ranks[rank]
	for p, s := range rs.iters[iter] {
		b := before[p]
		rs.iters[iter-1][p].Add(Sample{s.Work - b.Work, s.Bytes - b.Bytes, s.Msgs - b.Msgs, s.CPU - b.CPU})
	}
	rs.iters[iter] = before
	for len(rs.iters) > 0 && rs.iters[len(rs.iters)-1] == (IterSamples{}) {
		rs.iters = rs.iters[:len(rs.iters)-1]
	}
}

// Timer helps a rank meter a phase: t := StartTimer(); ... ;
// c.Record(rank, iter, phase, t.Done(work, bytes, msgs)).
type Timer struct{ start time.Time }

// StartTimer begins timing a phase.
func StartTimer() Timer { return Timer{start: time.Now()} }

// Done finishes the timer and packages the counters into a Sample.
func (t Timer) Done(work, bytes, msgs int64) Sample {
	return Sample{Work: work, Bytes: bytes, Msgs: msgs, CPU: time.Since(t.start)}
}

// PhaseTotal is a phase's aggregate across a run.
type PhaseTotal struct {
	Phase Phase
	// CriticalNS is the simulated parallel time: sum over iterations of the
	// per-iteration maximum over ranks.
	CriticalNS float64
	// SumNS is the total simulated work across all ranks (the "resource"
	// view); SumNS / (ranks × CriticalNS) is the phase's efficiency.
	SumNS float64
	// CPU is total measured host time across ranks.
	CPU time.Duration
	// Bytes and Msgs total the communication in the phase.
	Bytes int64
	Msgs  int64
}

// Report is the run-level summary derived from a Collector.
type Report struct {
	Ranks      int
	Iterations int
	Phases     [numPhases]PhaseTotal
	// CriticalNS is total simulated parallel time: the sum of phase
	// critical paths.
	CriticalNS float64
	// IterCriticalNS breaks the critical path down per iteration and phase
	// (Fig. 7's series).
	IterCriticalNS [][numPhases]float64
}

// BuildReport reduces the collector under the cost model. It must only be
// called after the SPMD run completes.
func (c *Collector) BuildReport(m CostModel) *Report {
	iters := c.Iterations()
	r := &Report{Ranks: len(c.ranks), Iterations: iters}
	r.IterCriticalNS = make([][numPhases]float64, iters)
	for p := Phase(0); p < numPhases; p++ {
		r.Phases[p].Phase = p
	}
	for it := 0; it < iters; it++ {
		for p := Phase(0); p < numPhases; p++ {
			maxCost := 0.0
			for rank := range c.ranks {
				if it >= len(c.ranks[rank].iters) {
					continue
				}
				s := c.ranks[rank].iters[it][p]
				cost := m.Cost(s)
				if cost > maxCost {
					maxCost = cost
				}
				pt := &r.Phases[p]
				pt.SumNS += cost
				pt.CPU += s.CPU
				pt.Bytes += s.Bytes
				pt.Msgs += s.Msgs
			}
			r.Phases[p].CriticalNS += maxCost
			r.IterCriticalNS[it][p] = maxCost
			r.CriticalNS += maxCost
		}
	}
	return r
}

// SimSeconds returns the simulated parallel runtime in seconds.
func (r *Report) SimSeconds() float64 { return r.CriticalNS / 1e9 }

// PhaseSeconds returns the simulated parallel seconds spent in phase p.
func (r *Report) PhaseSeconds(p Phase) float64 { return r.Phases[p].CriticalNS / 1e9 }

// String renders a compact phase-breakdown table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ranks=%d iters=%d sim=%.3fs\n", r.Ranks, r.Iterations, r.SimSeconds())
	for p := Phase(0); p < numPhases; p++ {
		pt := r.Phases[p]
		if pt.SumNS == 0 && pt.Bytes == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-12s crit=%9.3fms sum=%9.3fms bytes=%d msgs=%d\n",
			pt.Phase, pt.CriticalNS/1e6, pt.SumNS/1e6, pt.Bytes, pt.Msgs)
	}
	return b.String()
}

// CDF computes the cumulative distribution of a per-rank quantity (used for
// the paper's Figure 3 tuple-distribution plot): the returned slice is the
// sorted values, so that point i is the (i+1)/len quantile.
func CDF(perRank []int) []int {
	out := append([]int(nil), perRank...)
	sort.Ints(out)
	return out
}

// ImbalanceRatio returns max/min over the per-rank values, the paper's
// headline skew statistic ("the largest rank had ten times more tuples than
// the smallest"). Zero minima are clamped to 1 to keep the ratio finite.
func ImbalanceRatio(perRank []int) float64 {
	if len(perRank) == 0 {
		return 1
	}
	min, max := perRank[0], perRank[0]
	for _, v := range perRank[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if min < 1 {
		min = 1
	}
	return float64(max) / float64(min)
}
