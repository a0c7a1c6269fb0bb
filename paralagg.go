// Package paralagg is a Go reproduction of PARALAGG, the
// communication-avoiding recursive-aggregation system of Sun, Kumar,
// Gilray, and Micinski (CLUSTER 2023). It lets you declare relational-
// algebra programs with recursive aggregates — SSSP, connected components,
// PageRank, transitive closure — and executes them with semi-naïve
// evaluation over a simulated MPI runtime: ranks are goroutines, relations
// are distributed by bucket/sub-bucket double hashing, joins use
// per-iteration dynamic layout planning (the paper's Algorithm 1), and
// aggregation is fused with deduplication so that it adds no communication.
//
// A minimal program:
//
//	p := paralagg.NewProgram()
//	p.DeclareSet("edge", 2, 1)
//	p.DeclareAgg("cc", 1, paralagg.MinAgg)
//	p.Add(
//	    paralagg.R(paralagg.A("cc", paralagg.Var("y"), paralagg.Var("z")),
//	        paralagg.A("cc", paralagg.Var("x"), paralagg.Var("z")),
//	        paralagg.A("edge", paralagg.Var("x"), paralagg.Var("y"))),
//	)
//	res, err := paralagg.Exec(p, paralagg.Config{Ranks: 8}, loadFn, nil)
//
// Exec spawns one goroutine per rank; loadFn runs on every rank to feed
// that rank's share of the base facts, and the returned Result carries
// global relation sizes, iteration counts, and the simulated parallel-time
// report the benchmark harness uses to reproduce the paper's figures.
package paralagg

import (
	"fmt"
	"sort"
	"time"

	"paralagg/internal/core"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// PlanPolicy selects how each join's outer (serialized) relation is chosen.
type PlanPolicy int

// Join-layout policies. Dynamic is the paper's voting algorithm
// (Algorithm 1) and the default; StaticRight reproduces the baseline of the
// paper's Figure 2; AntiDynamic deliberately inverts the vote and exists
// for ablations.
const (
	Dynamic PlanPolicy = iota
	StaticLeft
	StaticRight
	AntiDynamic
)

func (p PlanPolicy) mode() ra.PlanMode {
	switch p {
	case StaticLeft:
		return ra.PlanStaticLeft
	case StaticRight:
		return ra.PlanStaticRight
	case AntiDynamic:
		return ra.PlanAntiDynamic
	}
	return ra.PlanDynamic
}

// Config tunes an execution.
type Config struct {
	// Ranks is the number of simulated MPI ranks (default 4).
	Ranks int
	// Subs is the sub-bucket count of every relation: how many ranks the
	// tuples of a heavy join key spread over, the spatial load-balancing
	// knob, fixed for the run (default 1 = off; the paper's balanced runs
	// use 8). A key is heavy when a relation's first bulk load holds it many
	// times more often than the mean key; every other key keeps one rank.
	Subs int
	// Plan is the join-layout policy.
	Plan PlanPolicy
	// MaxIters bounds each stratum's fixpoint (0 = to fixpoint).
	MaxIters int
	// Cost overrides the simulated-time cost model (zero value = default).
	Cost metrics.CostModel

	// CollectiveSchedule selects how collectives route their messages:
	// "flat" (or empty, the default) composes every collective as a
	// gather-to-root + broadcast star; "tree" routes through a
	// topology-aware binomial reduction tree (O(log P) critical path, root
	// traffic cut from O(P) to O(log P) messages). Any other spelling fails
	// Validate. Must be identical on every rank of a distributed world.
	CollectiveSchedule string
	// Topology describes where ranks live relative to each other (host
	// grouping plus optional per-link costs). The tree schedule keeps
	// reduction traffic inside a host before crossing to another; the link
	// costs are parsed but nothing prices them yet. nil (the default) is a
	// uniform single-host topology. Must describe exactly the world's rank
	// count.
	Topology *Topology

	// Transport runs the execution distributed: this process hosts rank
	// Transport.Self() of a Transport.Size()-rank world over a real wire
	// (internal/transport/tcp provides one). Every participating process
	// must call Exec with the same program, config, and deterministic load;
	// Ranks is ignored in favor of Transport.Size(). The caller owns the
	// transport and closes it after Exec returns. nil (the default) runs
	// every rank in-process.
	Transport Transport

	// Faults injects a deterministic fault schedule into the runtime
	// (testing and chaos experiments). nil runs fault-free.
	Faults *FaultPlan
	// Watchdog, when positive, bounds how long a collective may sit
	// incomplete before the missing rank is declared failed; without it a
	// hung rank deadlocks the world until Go's runtime detector fires. It is
	// the ceiling (and starting value) of a deadline that tracks the run's
	// own pace: an EWMA of iteration time, multiplied by a safety factor and
	// clamped to [WatchdogFloor, Watchdog]. A genuinely stuck collective
	// converts to a failure within the ceiling, while slow-but-progressing
	// runs never false-positive.
	Watchdog time.Duration
	// WatchdogFloor is the deadline's lower clamp (0 = 100ms, or Watchdog
	// when that is smaller). Set it above any expected single-message stall
	// (injected delays, GC pauses) to keep the tightened deadline honest;
	// WatchdogFloor = Watchdog is a fixed deadline.
	WatchdogFloor time.Duration

	// MemBudget, when positive, is the per-rank accounted-memory budget in
	// bytes: each rank samples its resident structures (relation arenas,
	// index trees, scratch, the transport's unacknowledged-frame outbox)
	// once per fixpoint iteration and the world collectively applies a
	// pressure ladder. At 85% of the budget (soft) ranks shed scratch pools
	// and bring the next checkpoint forward; at the budget (hard) the run
	// fails with a structured resource.ErrMemoryBudget (extract it with
	// AsMemoryBudget) that Supervise recovers like a rank death — never an
	// uncontrolled OOM kill. 0 disables accounting. Must be identical on
	// every rank of a distributed world.
	MemBudget int64

	// Integrity turns on online divergence detection: every relation
	// fingerprints its full state, its Δ, and its replicas each iteration
	// with order-independent digests that ride on the convergence agreement
	// (no extra collective round). A digest invariant violation fails every
	// rank with ErrStateDiverged in the same iteration, which Supervise
	// converts into a rollback to the last verified checkpoint. Must be set
	// identically on every rank of a distributed world.
	Integrity bool
	// CheckpointEvery, with Checkpoints set, snapshots every relation each
	// CheckpointEvery fixpoint iterations so a crashed run can be re-Exec'd
	// with Resume. 0 disables checkpointing.
	CheckpointEvery int
	// Checkpoints stores the per-rank snapshots.
	Checkpoints CheckpointSink
	// Resume restarts from the latest checkpoint in Checkpoints instead of
	// running from scratch: completed strata are skipped and the
	// checkpointed stratum continues from its saved iteration. The load
	// callback still runs, but every relation restores wholesale over what
	// it loaded — base shadows included, so the base facts a later delete
	// re-derives from are the snapshot's, inserted batches and all.
	Resume bool
	// Rejoin re-enters this process as a hot replacement for a crashed rank
	// of a gang that is still running: the rank's own checkpoint restores
	// its shard (no collective agreement — the survivors never tore down)
	// and the fixpoint replays from the checkpoint's iteration, with the
	// survivors absorbing replayed frames as duplicates and retransmitting
	// the lost tail from held-back send history. Requires Transport (the
	// survivors are other processes), Checkpoints, and a transport built
	// with the hot-replacement protocol and the checkpoint's wire marks
	// (RejoinSeeds). Mutually exclusive with Resume.
	Rejoin bool

	// Observer, when set, receives the live event stream: per-iteration
	// events with phase timings, Δ sizes, per-rank tuple counts, plan
	// votes, and communication/transport deltas, plus checkpoint, recovery,
	// and rank-failure events — everything the post-hoc Result reports,
	// streamed while the run is in flight. Implementations must be safe for
	// concurrent use (every rank goroutine emits) and must not retain
	// events past OnEvent (they are pooled; Event.Clone copies).
	//
	// nil (the default) is free: the runtime performs no observability work
	// and no allocations. Observation may add collective operations (the
	// per-rank distribution events allgather), so in a distributed world
	// every process must agree on whether an Observer is attached.
	Observer Observer
}

// Validate rejects incoherent configurations with errors that say how to
// fix them. Exec calls it first, so a bad config fails fast instead of
// silently defaulting or misbehaving mid-run.
func (c Config) Validate() error {
	if c.Ranks < 0 {
		return fmt.Errorf("paralagg: Config.Ranks must be >= 0, got %d (0 means the default of 4)", c.Ranks)
	}
	if c.Transport != nil && c.Ranks != 0 {
		return fmt.Errorf("paralagg: Config.Transport and Config.Ranks are mutually exclusive: the world size is Transport.Size() = %d (leave Ranks zero)", c.Transport.Size())
	}
	if c.Subs < 0 {
		return fmt.Errorf("paralagg: Config.Subs must be >= 0, got %d (0 or 1 disables sub-bucketing)", c.Subs)
	}
	if c.MaxIters < 0 {
		return fmt.Errorf("paralagg: Config.MaxIters must be >= 0, got %d (0 runs to fixpoint)", c.MaxIters)
	}
	if _, err := mpi.ParseScheduleKind(c.CollectiveSchedule); err != nil {
		return fmt.Errorf("paralagg: Config.CollectiveSchedule: %v", err)
	}
	if c.Topology != nil {
		size := c.ranks()
		if c.Transport != nil {
			size = c.Transport.Size()
		}
		if err := c.Topology.Validate(size); err != nil {
			return fmt.Errorf("paralagg: Config.Topology: %v", err)
		}
	}
	if c.Watchdog < 0 {
		return fmt.Errorf("paralagg: Config.Watchdog must be >= 0, got %v (0 disables the watchdog)", c.Watchdog)
	}
	if c.WatchdogFloor < 0 {
		return fmt.Errorf("paralagg: Config.WatchdogFloor must be >= 0, got %v", c.WatchdogFloor)
	}
	if c.WatchdogFloor > c.Watchdog {
		return fmt.Errorf("paralagg: Config.WatchdogFloor %v exceeds Config.Watchdog %v, the deadline's ceiling", c.WatchdogFloor, c.Watchdog)
	}
	if c.MemBudget < 0 {
		return fmt.Errorf("paralagg: Config.MemBudget must be >= 0, got %d (0 disables memory accounting)", c.MemBudget)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("paralagg: Config.CheckpointEvery must be >= 0, got %d (0 disables checkpointing)", c.CheckpointEvery)
	}
	if c.CheckpointEvery > 0 && c.Checkpoints == nil {
		return fmt.Errorf("paralagg: Config.CheckpointEvery = %d needs Config.Checkpoints: without a sink there is nowhere to store the snapshots", c.CheckpointEvery)
	}
	if c.Resume && c.Checkpoints == nil {
		return fmt.Errorf("paralagg: Config.Resume needs Config.Checkpoints: there is no sink to restore from")
	}
	if c.Rejoin {
		if c.Resume {
			return fmt.Errorf("paralagg: Config.Rejoin and Config.Resume are mutually exclusive: Rejoin splices into a live gang, Resume restarts a torn-down one")
		}
		if c.Checkpoints == nil {
			return fmt.Errorf("paralagg: Config.Rejoin needs Config.Checkpoints: there is no sink to restore the shard from")
		}
		if c.Transport == nil {
			return fmt.Errorf("paralagg: Config.Rejoin needs Config.Transport: a hot replacement joins surviving processes over a real wire")
		}
	}
	return nil
}

func (c Config) ranks() int {
	if c.Ranks < 1 {
		return 4
	}
	return c.Ranks
}

func (c Config) cost() metrics.CostModel {
	if c.Cost == (metrics.CostModel{}) {
		return metrics.DefaultCostModel
	}
	return c.Cost
}

// Rank is one simulated rank's view of a running program: load facts into
// relations and inspect results. It is only valid inside the callbacks
// passed to Exec.
type Rank struct {
	comm *mpi.Comm
	inst *core.Instance
}

// ID returns this rank's index in [0, Size).
func (r *Rank) ID() int { return r.comm.Rank() }

// Size returns the world size.
func (r *Rank) Size() int { return r.comm.Size() }

// relation resolves a declared relation by name. Programs refer to
// relations uniformly on every rank, so an unknown name errors identically
// world-wide and collective discipline is preserved.
func (r *Rank) relation(rel string) (*relation.Relation, error) {
	rl := r.inst.Relation(rel)
	if rl == nil {
		return nil, fmt.Errorf("paralagg: unknown relation %q", rel)
	}
	return rl, nil
}

// Load feeds this rank's share of base facts into a relation (canonical
// column order). Collective: every rank must call it for the same relation
// in the same order.
func (r *Rank) Load(rel string, facts []Tuple) error {
	rl, err := r.relation(rel)
	if err != nil {
		return err
	}
	buf := tuple.NewBuffer(rl.Arity, len(facts))
	for _, f := range facts {
		buf.Append(tuple.Tuple(f))
	}
	return r.inst.Load(rel, buf)
}

// LoadShare splits n generated facts deterministically across ranks and
// loads them. gen must behave identically on every rank; it is called with
// the fact indices owned by this rank. emit copies the tuple before it
// returns, so a generator may emit every fact from one reused row — a Tuple
// literal per fact escapes through emit and costs a heap object each.
func (r *Rank) LoadShare(rel string, n int, gen func(i int, emit func(Tuple))) error {
	rl, err := r.relation(rel)
	if err != nil {
		return err
	}
	rank, size := r.comm.Rank(), r.comm.Size()
	buf := tuple.NewBuffer(rl.Arity, n/size+1)
	emit := func(t Tuple) { buf.Append(tuple.Tuple(t)) }
	for i := rank; i < n; i += size {
		gen(i, emit)
	}
	return r.inst.Load(rel, buf)
}

// Each iterates this rank's locally stored result tuples of a relation in
// canonical column order (the accumulator for aggregated relations, the
// canonical index for set relations), or errors for an unknown relation
// name. The tuple passed to fn is a view into the relation's storage, valid
// only until fn returns: copy what you keep. Rank-local: it is the zero-copy
// visitor of an inspect callback; Query (collective) and Engine.Query
// materialize matches across ranks instead.
func (r *Rank) Each(rel string, fn func(Tuple)) error {
	rl, err := r.relation(rel)
	if err != nil {
		return err
	}
	eachLocal(rl, nil, func(t tuple.Tuple) { fn(Tuple(t)) })
	return nil
}

// Reduce combines one word from every rank. Collective.
func (r *Rank) Reduce(v uint64, op ReduceOp) uint64 {
	return r.comm.Allreduce(v, mpi.ReduceOp(op))
}

// ReduceOp mirrors the runtime's reduction operators.
type ReduceOp int

// Reduction operators for Rank.Reduce.
const (
	OpSum ReduceOp = ReduceOp(mpi.OpSum)
	OpMax ReduceOp = ReduceOp(mpi.OpMax)
	OpMin ReduceOp = ReduceOp(mpi.OpMin)
)

// Result summarizes an execution. Its JSON names are the stable
// machine-readable document cmd/paralagg -json prints: tooling parses them.
type Result struct {
	// Ranks is the world size the program ran on.
	Ranks int `json:"ranks"`
	// StratumIters lists each stratum's iteration count.
	StratumIters []int `json:"stratum_iters"`
	// Iterations sums them.
	Iterations int `json:"iterations"`
	// Counts holds every declared relation's final global size.
	Counts map[string]uint64 `json:"counts"`
	// SimSeconds is the simulated parallel runtime (critical path over
	// ranks under the cost model).
	SimSeconds float64 `json:"sim_seconds"`
	// PhaseSeconds breaks SimSeconds down by phase name (planning,
	// intra-bucket, local-join, all-to-all, local-agg, other, and the
	// checkpoint, recovery, remap and integrity overheads).
	PhaseSeconds map[string]float64 `json:"phase_seconds"`
	// IterPhaseSeconds is the per-iteration breakdown (Figure 7's series):
	// IterPhaseSeconds[i][phase].
	IterPhaseSeconds []map[string]float64 `json:"iter_phase_seconds"`
	// CommBytes is the total payload moved between ranks.
	CommBytes int64 `json:"comm_bytes"`
	// CommMsgs is the total message/collective-lane count.
	CommMsgs int64 `json:"comm_msgs"`
	// MemPeakBytes is the maximum accounted memory any rank reached
	// (0 when Config.MemBudget is unset).
	MemPeakBytes int64 `json:"mem_peak_bytes,omitempty"`
}

// Exec instantiates prog on a simulated world, loads facts, runs every
// stratum to fixpoint, and optionally inspects per-rank state. load runs on
// every rank after instantiation (use it to feed facts); inspect, if
// non-nil, runs after the fixpoint completes. Both must perform identical
// sequences of collective operations on every rank.
func Exec(prog *Program, cfg Config, load func(*Rank) error, inspect func(*Rank) error) (*Result, error) {
	e, err := Open(cfg, prog)
	if err != nil {
		return nil, err
	}
	_, res, err := e.apply(nil, Mutation{Load: load}, inspect)
	if err != nil {
		e.Close()
		return nil, err
	}
	if cerr := e.Close(); cerr != nil {
		return nil, cerr
	}
	e.finishReport(res)
	return res, nil
}

// RejoinSeeds reads rank's newest valid checkpoint rank-locally and returns
// the wire frame counters a hot-replacement transport must be seeded with
// before the world is built (internal/transport/tcp Config.InitialSendSeqs
// and InitialRecvSeqs). It fails when the rank holds no valid checkpoint or
// the checkpoint carries no wire marks (the gang was not running the
// replacement protocol when it was saved).
func RejoinSeeds(sink CheckpointSink, rank int) (send, recv []uint64, err error) {
	cp, ok, err := ra.PeekRejoin(sink, rank)
	if err != nil {
		return nil, nil, err
	}
	if !ok {
		return nil, nil, ErrNoCheckpoint
	}
	return cp.SendSeqs, cp.RecvSeqs, nil
}

// Summary renders the result compactly.
func (r *Result) Summary() string {
	s := fmt.Sprintf("ranks=%d iters=%d sim=%.4fs commMB=%.2f\n",
		r.Ranks, r.Iterations, r.SimSeconds, float64(r.CommBytes)/1e6)
	var names []string
	for n := range r.Counts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		s += fmt.Sprintf("  %s: %d tuples\n", n, r.Counts[n])
	}
	return s
}
