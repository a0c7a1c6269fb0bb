package paralagg

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paralagg/internal/btree"
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

	// journal holds the global base-fact set per relation. The deletion
	// path re-derives from it; the from-scratch fallback replays it
	// entirely. Facts arrive as flat buffers — what the ranks loaded (kept
	// on each Rank) and what Apply inserted (inserted) — and are folded into
	// the ordered sets only when something reads or deletes from them, see
	// foldLoadsLocked.
	jmu      sync.Mutex
	journal  map[string]*journalRel
	inserted map[string][]*tuple.Buffer

	loaded bool
	closed bool
	broken bool
	runErr error

	applies    int64
	iterations int64
	queries    atomic.Int64
}

type journalRel struct {
	arity int
	facts *btree.Tree
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
	// they re-derive from their supports).
	Delete map[string][]Tuple
	// Load, only valid on the first Apply, runs on every rank to feed the
	// initial base facts (the same contract as Exec's load callback). Facts
	// loaded through it are journaled for later delete re-derivation.
	Load func(*Rank) error
}

// ApplyStats reports what one mutation batch cost.
type ApplyStats struct {
	// StratumIters lists each stratum's re-convergence iteration count.
	StratumIters []int
	// Iterations sums them.
	Iterations int
	// InvalidationRounds counts the over-approximate invalidation rounds a
	// deletion batch ran (0 for insert-only batches).
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
		world.SetAdaptiveWatchdog(mpi.AdaptiveWatchdog{Floor: cfg.WatchdogFloor, Ceil: cfg.Watchdog})
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
		Subs: cfg.Subs, SubsFor: cfg.SubsFor, Plan: cfg.Plan.mode(),
		MaxIters: cfg.MaxIters, Adaptive: cfg.Adaptive,
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

		journal:  map[string]*journalRel{},
		inserted: map[string][]*tuple.Buffer{},
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
// seeded Δ, deletions run over-approximate invalidation and re-derive from
// the surviving supports. It is serialized with other mutations and
// excludes queries while in flight.
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
	if !first && e.world.Distributed() && (len(m.Insert) > 0 || len(m.Delete) > 0) {
		return stats, nil, fmt.Errorf("paralagg: incremental mutations are not supported on a distributed world in this release (each process holds only its own journal shard)")
	}
	if err := e.validateMutation(m); err != nil {
		return stats, nil, err
	}
	// The journal reflects the post-batch base-fact set before the ranks
	// re-derive from it.
	e.journalMutation(m)

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
		if first {
			var rstats core.RunStats
			var err error
			switch {
			case e.cfg.Rejoin:
				cp, ok, perr := ra.PeekRejoin(e.cfg.Checkpoints, rk.ID())
				if perr != nil {
					return perr
				}
				if !ok {
					return ra.ErrNoCheckpoint
				}
				rstats, err = inst.Rejoin(rcfg, cp)
			case e.cfg.Resume:
				rstats, err = inst.Resume(rcfg)
			default:
				rstats = inst.Run(rcfg)
			}
			if err != nil {
				return err
			}
			if first && len(m.Insert) > 0 {
				// Initial batch may also carry explicit inserts (serving
				// without a Load callback): seed and converge them too.
				ins, serr := e.stripeMut(m.Insert, rk)
				if serr != nil {
					return serr
				}
				ast, aerr := inst.ApplyDelta(rcfg, core.ApplyInput{Inserts: ins, Reload: e.reloadFor(rk)})
				if aerr != nil {
					return aerr
				}
				rstats.TotalIters += ast.TotalIters
				rstats.StratumIters = append(rstats.StratumIters, ast.StratumIters...)
			}
			if record(rk) {
				applyStats = core.ApplyStats{RunStats: rstats}
			}
		} else {
			ins, err := e.stripeMut(m.Insert, rk)
			if err != nil {
				return err
			}
			del, err := e.stripeMut(m.Delete, rk)
			if err != nil {
				return err
			}
			ast, err := inst.ApplyDelta(rcfg, core.ApplyInput{
				Inserts: ins, Deletes: del, Reload: e.reloadFor(rk),
			})
			if err != nil {
				return err
			}
			if record(rk) {
				applyStats = ast
			}
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

// journalMutation records one batch in the base-fact journal: inserts join
// the unfolded buffers, deletions fold everything recorded so far and then
// remove their facts from the ordered sets.
func (e *Engine) journalMutation(m Mutation) {
	e.jmu.Lock()
	defer e.jmu.Unlock()
	for name, facts := range m.Insert {
		buf := tuple.NewBuffer(e.prog.Decl(name).Arity, len(facts))
		for _, f := range facts {
			buf.Append(tuple.Tuple(f))
		}
		e.inserted[name] = append(e.inserted[name], buf)
	}
	if len(m.Delete) == 0 {
		return
	}
	e.foldLoadsLocked()
	for name, facts := range m.Delete {
		jr := e.journal[name]
		if jr == nil {
			continue
		}
		for _, f := range facts {
			jr.facts.Delete(tuple.Tuple(f))
		}
	}
}

// foldLoadsLocked moves the base facts recorded since the last fold — what
// the ranks loaded and what Apply inserted — into the journal: per relation,
// one sort of the new facts together with those already journaled, and one
// bottom-up build of the ordered, deduplicated set. Only a deletion or a
// journal replay needs that set, so an engine that never does either never
// builds it, and a one-shot Exec never pays for a journal at all. The caller
// holds jmu and is ordered after every rank's loads: either the ranks are
// parked between commands, or (the initial batch's replay) a collective
// that every rank entered after loading has completed.
func (e *Engine) foldLoadsLocked() {
	unfolded := e.inserted
	for _, rk := range e.ranks {
		for name, bufs := range rk.loads {
			unfolded[name] = append(unfolded[name], bufs...)
		}
		rk.loads = nil
	}
	for name, bufs := range unfolded {
		jr := e.journal[name]
		if jr == nil {
			jr = &journalRel{arity: bufs[0].Arity, facts: btree.New()}
			e.journal[name] = jr
		}
		words := jr.facts.Serialize(jr.arity)
		for _, b := range bufs {
			words = append(words, b.Words...)
		}
		jr.facts.Reset()
		jr.facts.Build(jr.arity, tuple.SortedRun(jr.arity, words, nil))
		delete(unfolded, name)
	}
}

// stripeMut deterministically splits a global mutation map into this rank's
// share: fact i of a relation's batch belongs to rank i mod size. Every
// relation key survives (possibly with an empty buffer) so the mutated-
// relation set is uniform across ranks.
func (e *Engine) stripeMut(src map[string][]Tuple, rk *Rank) (map[string]*tuple.Buffer, error) {
	if len(src) == 0 {
		return nil, nil
	}
	out := make(map[string]*tuple.Buffer, len(src))
	id, size := rk.ID(), rk.Size()
	for name, facts := range src {
		rl, err := rk.relation(name)
		if err != nil {
			return nil, err
		}
		buf := tuple.NewBuffer(rl.Arity, len(facts)/size+1)
		for i, f := range facts {
			if i%size == id {
				buf.Append(tuple.Tuple(f))
			}
		}
		out[name] = buf
	}
	return out, nil
}

// reloadFor returns the per-rank journal reader: rank r gets base fact i of
// a relation's journal when i mod size == r (the same deterministic stripe
// LoadShare uses). nil when the relation never received base facts.
func (e *Engine) reloadFor(rk *Rank) func(string) *tuple.Buffer {
	id, size := rk.ID(), rk.Size()
	return func(name string) *tuple.Buffer {
		e.jmu.Lock()
		e.foldLoadsLocked()
		jr := e.journal[name]
		e.jmu.Unlock()
		if jr == nil {
			return nil
		}
		buf := tuple.NewBuffer(jr.arity, jr.facts.Len()/size+1)
		i := 0
		jr.facts.Ascend(func(t tuple.Tuple) bool {
			if i%size == id {
				buf.Append(t)
			}
			i++
			return true
		})
		return buf
	}
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
	res.CommBytes = int64(tot.Bytes())
	res.CommMsgs = int64(tot.P2PMessages + tot.CollectiveCalls)
}
