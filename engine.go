package paralagg

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paralagg/internal/core"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/obs"
	"paralagg/internal/ra"
	"paralagg/internal/resource"
	"paralagg/internal/tuple"
)

// Engine is the long-lived serving entry point: it holds a program's
// converged relations resident in the per-rank arenas, accepts streaming
// base-fact mutation batches through Apply, answers point lookups through
// Query without re-running any fixpoint, and snapshots or closes on demand.
// The one-shot Exec/Supervise paths are thin wrappers over
// Open + Apply(initial load) + Close, so batch and serving share one
// lifecycle.
//
// Internally the engine owns the SPMD world: every rank's goroutine parks
// in a command loop between batches, keeping its relation shards (wordmap
// arenas, B-tree indexes, Δ state) alive across Apply calls. Apply and
// Snapshot dispatch one collective command to every rank; Query reads the
// resident accumulators directly — no collectives, no iterations.
//
// Engine methods are safe for concurrent use: Apply/Snapshot/Close
// serialize, and Query runs concurrently with other Queries but is
// excluded while a mutation is in flight.
type Engine struct {
	cfg  Config
	prog *Program

	world *mpi.World
	mc    *metrics.Collector
	size  int

	// Rank-slot state, written once by each rank body before the command
	// loop starts (the readiness barrier in Open orders it before any use).
	// In-process worlds have one slot per rank; a distributed world hosts a
	// single rank, slot 0.
	insts []*core.Instance
	ranks []*Rank
	rcfgs []core.Config
	accts []*resource.Accountant
	cmds  []chan engineCmd

	// done receives the world's exit status exactly once.
	done      chan error
	closeOnce sync.Once

	// mu serializes Apply/Snapshot/Inspect/Close; qmu excludes Query during
	// mutations while letting queries run concurrently with each other; stmu
	// guards only the lifecycle flags and counters so Query and Stats can
	// read them without waiting for an in-flight mutation. stmu is never
	// held across a blocking call.
	mu   sync.Mutex
	qmu  sync.RWMutex
	stmu sync.Mutex

	loaded bool
	closed bool
	broken bool
	runErr error

	applies    int64
	iterations int64
	queries    atomic.Int64
}

// engineCmd is one collective command: every rank body runs fn and reports
// its error on done.
type engineCmd struct {
	fn   func(slot int, rk *Rank) error
	done chan error
}

// Mutation is one batch of base-fact changes.
type Mutation struct {
	// Insert maps relation name → base facts to add (canonical column
	// order). Inserting a fact already present is a no-op.
	Insert map[string][]Tuple
	// Delete maps relation name → base facts to remove. Deleting a fact
	// that is not a base fact is a no-op (derived tuples cannot be deleted —
	// they re-derive from their supports). A fact in both Insert and Delete
	// of one batch ends up deleted.
	Delete map[string][]Tuple
	// Load, only valid on the first Apply, runs on every rank to feed the
	// initial base facts (the same contract as Exec's load callback). Like
	// inserted facts, they are kept at their hash owners — a derived or
	// aggregated relation's in its base shadow — so a later delete
	// re-derives from them.
	Load func(*Rank) error
}

// ApplyStats reports what one mutation batch cost.
type ApplyStats struct {
	// StratumIters lists each stratum's re-convergence iteration count.
	StratumIters []int
	// Iterations sums them.
	Iterations int
	// InvalidationRounds counts the invalidation rounds a deletion batch
	// ran (0 for insert-only batches): rounds of chasing retracted
	// derivations, bounded by the lattice where the program allows it.
	InvalidationRounds int
	// Dropped is the global number of tuples invalidated by deletions.
	Dropped uint64
	// Incremental reports whether the batch was maintained incrementally
	// from the existing Δ (false on the initial load and on the
	// from-scratch fallback for non-incrementalizable programs).
	Incremental bool
	// MemPeakBytes is the maximum accounted memory any rank reached during
	// the batch (0 when Config.MemBudget is unset).
	MemPeakBytes int64
}

// EngineStats are cumulative counters over the engine's lifetime.
type EngineStats struct {
	// Applies is the number of completed Apply batches (including the
	// initial load).
	Applies int64
	// Queries is the number of completed point queries.
	Queries int64
	// Iterations is the total fixpoint iterations across every Apply —
	// queries never add to it (the O(lookup) guarantee is testable).
	Iterations int64
}

// Open builds the world, instantiates the program on every rank, and parks
// the ranks awaiting mutation batches. The first Apply performs the initial
// load and full fixpoint; Close tears the world down.
func Open(cfg Config, prog *Program) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	size := cfg.ranks()
	var world *mpi.World
	if cfg.Transport != nil {
		size = cfg.Transport.Size()
		world = mpi.NewDistributedWorld(cfg.Transport)
	} else {
		world = mpi.NewWorld(size)
	}
	if cfg.Faults != nil {
		world.SetFaultPlan(cfg.Faults)
	}
	// Validated above; the parse cannot fail here.
	sched, _ := mpi.ParseScheduleKind(cfg.CollectiveSchedule)
	world.SetSchedule(sched)
	if cfg.Topology != nil {
		world.SetTopology(cfg.Topology)
	}
	if cfg.Watchdog > 0 {
		world.SetWatchdog(cfg.WatchdogFloor, cfg.Watchdog)
	}
	if cfg.Observer != nil {
		world.SetObserver(cfg.Observer)
		e := obs.Get()
		e.Kind, e.Rank, e.Ranks = obs.KindRunStart, -1, size
		e.End = time.Now().UnixNano()
		obs.Emit(cfg.Observer, e)
	}
	mc := metrics.NewCollector(size)
	mc.SetObserver(cfg.Observer)

	runCfg := core.Config{
		Subs: cfg.Subs, Plan: cfg.Plan.mode(), MaxIters: cfg.MaxIters,
		CheckpointEvery: cfg.CheckpointEvery, Checkpoints: cfg.Checkpoints,
		Integrity: cfg.Integrity,
	}

	slots := size
	if world.Distributed() {
		slots = 1
	}
	e := &Engine{
		cfg: cfg, prog: prog, world: world, mc: mc, size: size,
		insts: make([]*core.Instance, slots),
		ranks: make([]*Rank, slots),
		rcfgs: make([]core.Config, slots),
		accts: make([]*resource.Accountant, slots),
		cmds:  make([]chan engineCmd, slots),
		done:  make(chan error, 1),
	}
	for i := range e.cmds {
		e.cmds[i] = make(chan engineCmd)
	}

	body := func(c *mpi.Comm) error {
		rcfg := runCfg
		var acct *resource.Accountant
		if cfg.MemBudget > 0 {
			// One accountant per rank: the fixpoint samples compute state
			// into it, and a flow-controlled transport charges its outbox.
			acct = resource.NewAccountant(cfg.MemBudget)
			rcfg.Acct = acct
			if sa, ok := cfg.Transport.(interface {
				SetAccountant(*resource.Accountant)
			}); ok {
				sa.SetAccountant(acct)
			}
		}
		inst, err := prog.Instantiate(c, mc, rcfg)
		if err != nil {
			return err
		}
		slot := 0
		if !world.Distributed() {
			slot = c.Rank()
		}
		e.insts[slot] = inst
		e.ranks[slot] = &Rank{comm: c, inst: inst}
		e.rcfgs[slot] = rcfg
		e.accts[slot] = acct
		for cmd := range e.cmds[slot] {
			cerr := cmd.fn(slot, e.ranks[slot])
			cmd.done <- cerr
			if cerr != nil {
				// SPMD state can no longer be trusted after a failed
				// collective command; the engine tears down.
				return cerr
			}
		}
		return nil
	}
	go func() {
		if world.Distributed() {
			e.done <- world.RunLocal(body)
		} else {
			e.done <- world.Run(body)
		}
	}()

	// Readiness barrier: every rank must have instantiated and entered its
	// command loop. Instantiation errors surface here.
	if err := e.dispatch(func(int, *Rank) error { return nil }); err != nil {
		e.teardown()
		e.emitRunEnd(err)
		return nil, err
	}
	return e, nil
}

// dispatch sends one collective command to every rank and waits for all
// replies, watching for the world dying underneath (rank panic, transport
// failure). Callers hold e.mu.
func (e *Engine) dispatch(fn func(slot int, rk *Rank) error) error {
	if _, _, broken, runErr := e.state(); broken {
		return runErr
	}
	n := len(e.cmds)
	done := make(chan error, n)
	cmd := engineCmd{fn: fn, done: done}
	for i := 0; i < n; i++ {
		select {
		case e.cmds[i] <- cmd:
		case err := <-e.done:
			return e.fail(err)
		}
	}
	var first error
	for i := 0; i < n; i++ {
		select {
		case err := <-done:
			if err != nil && first == nil {
				first = err
			}
		case err := <-e.done:
			return e.fail(err)
		}
	}
	if first != nil {
		// The failing rank's body already exited; tear the rest down and
		// return the world's exit status (it carries the rank-failure
		// wrapping Supervise relies on), falling back to the raw error.
		if werr := e.teardown(); werr != nil {
			return werr
		}
		return first
	}
	return nil
}

// state snapshots the lifecycle flags under stmu.
func (e *Engine) state() (loaded, closed, broken bool, runErr error) {
	e.stmu.Lock()
	defer e.stmu.Unlock()
	return e.loaded, e.closed, e.broken, e.runErr
}

// fail records the world's exit error and marks the engine broken.
func (e *Engine) fail(err error) error {
	if err == nil {
		err = fmt.Errorf("paralagg: engine world exited")
	}
	e.stmu.Lock()
	defer e.stmu.Unlock()
	e.broken = true
	if e.runErr == nil {
		e.runErr = err
	}
	return e.runErr
}

// teardown closes the command channels (ending every parked rank body) and
// collects the world's exit status. Callers hold e.mu (or, in Open, have
// sole ownership of the engine).
func (e *Engine) teardown() error {
	e.closeOnce.Do(func() {
		for _, ch := range e.cmds {
			close(ch)
		}
	})
	_, _, broken, runErr := e.state()
	if !broken {
		// Drain outside stmu: the world exit can take as long as its
		// slowest rank body.
		runErr = <-e.done
		e.stmu.Lock()
		e.broken = true
		e.runErr = runErr
		e.stmu.Unlock()
	}
	return runErr
}

// emitRunEnd streams the run-end observer event (once, at engine teardown).
func (e *Engine) emitRunEnd(err error) {
	if e.cfg.Observer == nil {
		return
	}
	ev := obs.Get()
	ev.Kind, ev.Rank = obs.KindRunEnd, -1
	if err != nil {
		ev.Err = err.Error()
	}
	ev.End = time.Now().UnixNano()
	obs.Emit(e.cfg.Observer, ev)
}

// Close shuts the engine down: parked ranks unwind, the world exits, and
// the world's exit status is returned. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, closed, _, runErr := e.state()
	if closed {
		return runErr
	}
	e.stmu.Lock()
	e.closed = true
	e.stmu.Unlock()
	err := e.teardown()
	e.emitRunEnd(err)
	return err
}

// Apply applies one mutation batch and re-runs the fixpoint to
// re-convergence. The first Apply performs the initial load (Mutation.Load
// or Insert) and the full from-zero fixpoint; subsequent batches are
// maintained incrementally when the program allows it (see
// ApplyStats.Incremental): inserts continue the fixpoint from a freshly
// seeded Δ, deletions invalidate what the retracted facts supported — for
// a selective lattice, only what they attained — and re-derive the dropped
// keys from their surviving supports. It is serialized with other mutations and
// excludes queries while in flight. On a distributed world every process
// must Apply the same batch (the SPMD contract Exec's load has): each keeps
// its stripe of it and routes the facts to their owners.
func (e *Engine) Apply(ctx context.Context, m Mutation) (ApplyStats, error) {
	stats, _, err := e.apply(ctx, m, nil)
	return stats, err
}

// apply is the shared mutation path: Exec routes its load/inspect callbacks
// through it, Apply passes nil inspect. It returns the per-batch stats and
// a Result carrying the post-batch relation counts.
func (e *Engine) apply(ctx context.Context, m Mutation, inspect func(*Rank) error) (ApplyStats, *Result, error) {
	var stats ApplyStats
	e.mu.Lock()
	defer e.mu.Unlock()
	loaded, closed, broken, runErr := e.state()
	if closed {
		return stats, nil, fmt.Errorf("paralagg: Apply on a closed engine")
	}
	if broken {
		return stats, nil, runErr
	}
	if ctx != nil {
		select {
		case <-ctx.Done():
			return stats, nil, ctx.Err()
		default:
		}
	}
	first := !loaded
	if m.Load != nil && !first {
		return stats, nil, fmt.Errorf("paralagg: Mutation.Load is only valid on the initial Apply")
	}
	if err := e.validateMutation(m); err != nil {
		return stats, nil, err
	}

	res := &Result{Ranks: e.size, Counts: map[string]uint64{}}
	var applyStats core.ApplyStats
	record := func(rk *Rank) bool { return rk.ID() == 0 || e.world.Distributed() }
	fn := func(slot int, rk *Rank) error {
		inst := e.insts[slot]
		rcfg := e.rcfgs[slot]
		// A hot replacement must not reload base facts: the restored
		// checkpoint carries every relation wholesale (see Exec's original
		// contract).
		if m.Load != nil && !e.cfg.Rejoin {
			if err := m.Load(rk); err != nil {
				return err
			}
		}
		ins, del := e.stripeMut(m.Insert, rk), e.stripeMut(m.Delete, rk)
		var ast core.ApplyStats
		var err error
		switch {
		case !first:
			ast, err = inst.ApplyDelta(rcfg, core.ApplyInput{Inserts: ins, Deletes: del})
		case e.cfg.Rejoin:
			cp, ok, perr := ra.PeekRejoin(e.cfg.Checkpoints, rk.ID())
			if perr != nil {
				return perr
			}
			if !ok {
				return ra.ErrNoCheckpoint
			}
			ast.RunStats, err = inst.Rejoin(rcfg, cp)
		case e.cfg.Resume:
			ast.RunStats, err = inst.Resume(rcfg)
		default:
			ast.RunStats = inst.Run(rcfg)
		}
		if err == nil && first && len(ins) > 0 {
			// Initial batch may also carry explicit inserts (serving without
			// a Load callback): seed and converge them too.
			var more core.ApplyStats
			more, err = inst.ApplyDelta(rcfg, core.ApplyInput{Inserts: ins})
			ast.TotalIters += more.TotalIters
			ast.StratumIters = append(ast.StratumIters, more.StratumIters...)
		}
		if err != nil {
			return err
		}
		if record(rk) {
			applyStats = ast
		}
		if e.cfg.MemBudget > 0 {
			// Collective: every rank agrees on the peak, so the schedule
			// stays uniform.
			peak := int64(rk.Reduce(uint64(e.accts[slot].PeakBytes()), OpMax))
			if record(rk) {
				res.MemPeakBytes = peak
			}
		}
		// Gather final sizes (collective; identical on all ranks).
		names := e.prog.RelationNames()
		sort.Strings(names)
		for _, n := range names {
			count := inst.Relation(n).GlobalFullCount()
			if record(rk) {
				res.Counts[n] = count
			}
		}
		if inspect != nil {
			return inspect(rk)
		}
		return nil
	}
	e.qmu.Lock()
	err := e.dispatch(fn)
	e.qmu.Unlock()
	if err != nil {
		return stats, nil, err
	}
	e.stmu.Lock()
	e.loaded = true
	e.applies++
	e.iterations += int64(applyStats.TotalIters)
	e.stmu.Unlock()
	stats = ApplyStats{
		StratumIters:       applyStats.StratumIters,
		Iterations:         applyStats.TotalIters,
		InvalidationRounds: applyStats.InvalidationRounds,
		Dropped:            applyStats.Dropped,
		Incremental:        applyStats.Incremental,
		MemPeakBytes:       res.MemPeakBytes,
	}
	res.StratumIters = applyStats.StratumIters
	res.Iterations = applyStats.TotalIters
	return stats, res, nil
}

// validateMutation checks relation names and tuple arities against the
// program before any collective work starts.
func (e *Engine) validateMutation(m Mutation) error {
	for _, batch := range []map[string][]Tuple{m.Insert, m.Delete} {
		for name, facts := range batch {
			d := e.prog.Decl(name)
			if d == nil {
				return fmt.Errorf("paralagg: mutation targets undeclared relation %q", name)
			}
			for _, f := range facts {
				if len(f) != d.Arity {
					return fmt.Errorf("paralagg: relation %q has arity %d, mutation tuple has %d columns", name, d.Arity, len(f))
				}
			}
		}
	}
	return nil
}

// stripeMut deterministically splits a validated global mutation map into
// this rank's share: fact i of a relation's batch belongs to rank i mod size.
// Every relation key survives (possibly with an empty buffer) so the
// mutated-relation set is uniform across ranks.
func (e *Engine) stripeMut(src map[string][]Tuple, rk *Rank) map[string]*tuple.Buffer {
	if len(src) == 0 {
		return nil
	}
	out := make(map[string]*tuple.Buffer, len(src))
	id, size := rk.ID(), rk.Size()
	for name, facts := range src {
		buf := tuple.NewBuffer(e.prog.Decl(name).Arity, len(facts)/size+1)
		for i, f := range facts {
			if i%size == id {
				buf.Append(tuple.Tuple(f))
			}
		}
		out[name] = buf
	}
	return out
}

// Inspect runs fn on every rank (the Exec inspect contract: fn must perform
// identical collective sequences on every rank). The differential suites
// use it to fingerprint the resident state between batches.
func (e *Engine) Inspect(fn func(*Rank) error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, closed, broken, runErr := e.state()
	if closed {
		return fmt.Errorf("paralagg: Inspect on a closed engine")
	}
	if broken {
		return runErr
	}
	return e.dispatch(func(_ int, rk *Rank) error { return fn(rk) })
}

// Snapshot captures every relation of the program into sink, one
// checkpoint per rank, labeled with the engine's cumulative iteration
// count. A later Open with Config.Resume and the same sink restores the
// converged state without replaying any batch. Collective; serialized with
// Apply.
func (e *Engine) Snapshot(sink CheckpointSink) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, closed, broken, runErr := e.state()
	if closed {
		return fmt.Errorf("paralagg: Snapshot on a closed engine")
	}
	if broken {
		return runErr
	}
	if sink == nil {
		return fmt.Errorf("paralagg: Snapshot needs a sink")
	}
	e.stmu.Lock()
	iter := int(e.iterations)
	e.stmu.Unlock()
	return e.dispatch(func(slot int, rk *Rank) error {
		inst := e.insts[slot]
		_, err := ra.Capture(rk.comm, inst.SnapshotRelations(), inst.Strata()-1, iter,
			func(cp ra.Checkpoint) error { return sink.Save(rk.ID(), cp) })
		return err
	})
}

// Stats returns the engine's cumulative counters. It never blocks behind an
// in-flight Apply.
func (e *Engine) Stats() EngineStats {
	e.stmu.Lock()
	defer e.stmu.Unlock()
	return EngineStats{
		Applies:    e.applies,
		Queries:    e.queries.Load(),
		Iterations: e.iterations,
	}
}

// finishReport fills the simulated-time and communication fields of a
// Result after the world has exited (the Exec wrapper's tail).
func (e *Engine) finishReport(res *Result) {
	report := e.mc.BuildReport(e.cfg.cost())
	res.SimSeconds = report.SimSeconds()
	res.PhaseSeconds = make(map[string]float64, len(metrics.PhaseNames))
	for p := 0; p < len(metrics.PhaseNames); p++ {
		res.PhaseSeconds[metrics.PhaseNames[p]] = report.PhaseSeconds(metrics.Phase(p))
	}
	res.IterPhaseSeconds = make([]map[string]float64, len(report.IterCriticalNS))
	for i, row := range report.IterCriticalNS {
		m := make(map[string]float64, len(row))
		for p, ns := range row {
			m[metrics.PhaseNames[p]] = ns / 1e9
		}
		res.IterPhaseSeconds[i] = m
	}
	tot := e.world.Stats().Snapshot()
	res.CommBytes = int64(tot.Bytes)
	res.CommMsgs = int64(tot.Calls)
}
