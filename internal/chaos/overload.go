package chaos

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"paralagg"
	"paralagg/internal/transport/tcp"
)

// Overload chaos: the differential discipline applied to resource
// exhaustion. A fault-free run fixes the answer; runs under injected
// overload — a receiver that cannot keep up, phantom memory pressure
// against a budget, a full checkpoint device — must either complete with
// bit-identical relations inside their resource bounds (flow control
// throttles, soft pressure sheds, checkpointing degrades) or fail
// structurally and recover under supervision to the identical answer
// (hard budget). Nothing may deadlock, buffer without bound, or OOM.

// OverloadReport is the outcome of one overload differential.
type OverloadReport struct {
	Clean     map[string]Fingerprint
	Recovered map[string]Fingerprint
	// Net aggregates the gang's transport counters (TCP slow-consumer
	// differential only): ThrottleStalls proves flow control engaged,
	// OutboxPeakFrames that no sender buffered past the window.
	Net paralagg.NetStats
	// Budget and MemPeakBytes describe the budgeted run (memory
	// differentials only).
	Budget       int64
	MemPeakBytes int64
	// SoftEvents / HardEvents count the pressure-ladder responses the
	// observer saw across all ranks.
	SoftEvents, HardEvents int64
	// BudgetErr is the structured violation the hard-budget run surfaced.
	BudgetErr *paralagg.ErrMemoryBudget
	// RecoveryAttempts counts supervised restarts (hard-budget run only).
	RecoveryAttempts int
	// DegradationsDelta is the growth of the process-wide checkpoint
	// degradation counter (disk-full differential only).
	DegradationsDelta int64
}

// Identical reports whether the overloaded run reproduced the fault-free
// relation contents exactly.
func (r *OverloadReport) Identical() bool {
	if len(r.Clean) != len(r.Recovered) {
		return false
	}
	for rel, fp := range r.Clean {
		if r.Recovered[rel] != fp {
			return false
		}
	}
	return true
}

// overloadObserver counts pressure-ladder and degradation events across all
// rank goroutines.
type overloadObserver struct {
	soft, hard, degraded atomic.Int64
}

func (o *overloadObserver) OnEvent(e *paralagg.Event) {
	switch e.Kind {
	case paralagg.EventMemPressure:
		if e.Name == "hard" {
			o.hard.Add(1)
		} else {
			o.soft.Add(1)
		}
	case paralagg.EventCkptDegraded:
		o.degraded.Add(1)
	}
}

// TCPSlowConsumer runs sc in-process (the reference answer), then over a
// TCP gang whose endpoints carry a deliberately small send window while the
// last rank takes half a millisecond to consume each frame and advertises a
// single credit. Its peers run one collective ahead of it — they can send
// the next exchange's frame as soon as they hold its previous one, long
// before it has consumed theirs — so that second frame finds the credit
// spent and must wait for the ack of the first: the consumer really is
// slower than its senders, whatever the ack cadence. The run must complete
// bit-identical — flow control rate-matches the slow receiver instead of
// losing data or buffering without bound — with every sender's outbox peak
// inside the window and at least one throttle stall recorded (otherwise the
// fault never bit). The gang runs under the adaptive watchdog, so a clean
// finish doubles as the proof that a throttled-but-live peer is not
// declared dead.
func TCPSlowConsumer(sc Scenario, ranks, window int) (*OverloadReport, error) {
	rep := &OverloadReport{}
	if _, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs},
		sc.Load, collect(sc.Rels, &rep.Clean)); err != nil {
		return nil, fmt.Errorf("chaos %s: in-process reference run failed: %w", sc.Name, err)
	}
	faults := &tcp.NetFaultPlan{
		SlowConsumers: []tcp.SlowConsumer{{
			Rank:   ranks - 1,
			Delay:  500 * time.Microsecond,
			Window: 1,
		}},
	}
	trs, err := gang(ranks, faults, func(cfg *tcp.Config) {
		cfg.SendWindow = window
		cfg.SendStallTimeout = 30 * time.Second
	})
	if err != nil {
		return nil, fmt.Errorf("chaos %s: building TCP gang: %w", sc.Name, err)
	}
	base := paralagg.Config{Subs: sc.Subs, AdaptiveWatchdog: true, WatchdogCeil: 10 * time.Second}
	errs := runGang(sc, trs, base, &rep.Recovered)
	for _, tr := range trs {
		rep.Net = rep.Net.Add(tr.Net())
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chaos %s: TCP rank %d failed under a slow consumer: %w", sc.Name, rank, err)
		}
	}
	if rep.Net.ThrottleStalls == 0 {
		return nil, fmt.Errorf("chaos %s: no throttle stalls recorded — the slow consumer never exhausted the window", sc.Name)
	}
	if rep.Net.OutboxPeakFrames > int64(window) {
		return nil, fmt.Errorf("chaos %s: sender outbox peaked at %d frames, past the %d-frame window",
			sc.Name, rep.Net.OutboxPeakFrames, window)
	}
	return rep, nil
}

// pressureIter is the iteration the memory differentials inject their
// phantom charge at; every chaos scenario's fixpoint runs clearly past it.
const pressureIter = 3

// probeBudget runs sc with an effectively unlimited budget to measure the
// workload's real accounted peak (the scale every budget below derives
// from) and to fix the reference fingerprints.
func probeBudget(sc Scenario, ranks int, clean *map[string]Fingerprint) (int64, error) {
	res, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs, MemBudget: 1 << 40},
		sc.Load, collect(sc.Rels, clean))
	if err != nil {
		return 0, fmt.Errorf("chaos %s: budget probe run failed: %w", sc.Name, err)
	}
	if res.MemPeakBytes <= 0 {
		return 0, fmt.Errorf("chaos %s: budget probe recorded no accounted memory", sc.Name)
	}
	if res.Iterations <= pressureIter {
		return 0, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, pressure at %d would never fire",
			sc.Name, res.Iterations, pressureIter)
	}
	return res.MemPeakBytes, nil
}

// MemPressureSoft proves the soft rung of the pressure ladder: a probe run
// measures the workload's accounted peak P, then the same workload runs
// with budget 16P and a one-time phantom charge of 0.9×budget injected on
// the last rank at iteration 3. The phantom lifts that rank into the soft
// band for the rest of the run, so every iteration from there on must shed
// scratch world-wide (the response is collective) — and the run must still
// complete with bit-identical relations and an accounted peak inside the
// budget. The hard rung must never fire.
func MemPressureSoft(sc Scenario, ranks int) (*OverloadReport, error) {
	rep := &OverloadReport{}
	peak, err := probeBudget(sc, ranks, &rep.Clean)
	if err != nil {
		return nil, err
	}
	rep.Budget = 16 * peak
	phantom := rep.Budget / 10 * 9 // soft band on its own; real usage adds < budget/16
	obs := &overloadObserver{}
	res, err := exec(sc.Prog(), paralagg.Config{
		Ranks:     ranks,
		Subs:      sc.Subs,
		MemBudget: rep.Budget,
		Observer:  obs,
		Faults: &paralagg.FaultPlan{
			Seed:         1,
			MemPressures: []paralagg.MemPressure{{Rank: ranks - 1, Iter: pressureIter, Bytes: phantom}},
		},
	}, sc.Load, collect(sc.Rels, &rep.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: run under soft memory pressure failed: %w", sc.Name, err)
	}
	rep.MemPeakBytes = res.MemPeakBytes
	rep.SoftEvents, rep.HardEvents = obs.soft.Load(), obs.hard.Load()
	if rep.SoftEvents == 0 {
		return nil, fmt.Errorf("chaos %s: injected phantom pressure raised no soft response", sc.Name)
	}
	if rep.HardEvents != 0 {
		return nil, fmt.Errorf("chaos %s: soft-band pressure escalated to %d hard responses", sc.Name, rep.HardEvents)
	}
	if rep.MemPeakBytes > rep.Budget {
		return nil, fmt.Errorf("chaos %s: accounted peak %d exceeds the %d budget", sc.Name, rep.MemPeakBytes, rep.Budget)
	}
	return rep, nil
}

// MemPressureHard proves the hard rung never becomes an OOM kill: with a
// phantom charge of a full budget injected mid-fixpoint, every rank must
// fail in the same iteration with a structured ErrMemoryBudget (inside the
// usual ErrRankFailed), and a supervised run with checkpointing on must
// recover past the (attempt-0-only) fault to the bit-identical answer.
func MemPressureHard(sc Scenario, ranks, every int) (*OverloadReport, error) {
	rep := &OverloadReport{}
	peak, err := probeBudget(sc, ranks, &rep.Clean)
	if err != nil {
		return nil, err
	}
	rep.Budget = 16 * peak
	plan := &paralagg.FaultPlan{
		Seed:         1,
		MemPressures: []paralagg.MemPressure{{Rank: ranks - 1, Iter: pressureIter, Bytes: rep.Budget}},
	}

	// Unsupervised: the violation must surface structurally on every rank
	// (the ladder's response is collective) and name the budget.
	_, err = exec(sc.Prog(), paralagg.Config{
		Ranks: ranks, Subs: sc.Subs, MemBudget: rep.Budget, Faults: plan,
	}, sc.Load, nil)
	if err == nil {
		return nil, fmt.Errorf("chaos %s: a full-budget phantom charge produced no error", sc.Name)
	}
	failures := paralagg.RankFailures(err)
	if len(failures) != ranks {
		return nil, fmt.Errorf("chaos %s: hard budget surfaced on %d of %d ranks: %w", sc.Name, len(failures), ranks, err)
	}
	mb, ok := paralagg.AsMemoryBudget(err)
	if !ok {
		return nil, fmt.Errorf("chaos %s: hard-budget failure carries no ErrMemoryBudget: %w", sc.Name, err)
	}
	if mb.Budget != rep.Budget || mb.Used < mb.Budget {
		return nil, fmt.Errorf("chaos %s: budget violation %v does not match the configured budget %d", sc.Name, mb, rep.Budget)
	}
	rep.BudgetErr = mb

	// Supervised: the default attempt-0-only fault policy drops the phantom
	// on restart, so recovery resumes from the pre-violation checkpoint and
	// must land on the fault-free answer.
	scfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:           ranks,
			Subs:            sc.Subs,
			MemBudget:       rep.Budget,
			CheckpointEvery: every,
			Checkpoints:     paralagg.NewMemoryCheckpointSink(),
			Faults:          plan,
		},
		RecoveryBackoff: time.Millisecond,
	}
	res, srep, err := supervise(sc.Prog(), scfg, sc.Load, collect(sc.Rels, &rep.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: supervised recovery from a hard budget failed: %w", sc.Name, err)
	}
	if srep.RecoveryAttempts == 0 {
		return nil, fmt.Errorf("chaos %s: injected hard pressure never fired — nothing was recovered", sc.Name)
	}
	rep.RecoveryAttempts = srep.RecoveryAttempts
	rep.MemPeakBytes = res.MemPeakBytes
	return rep, nil
}

// DiskFullDegradation proves checkpointing degrades instead of aborting:
// with file-backed checkpointing every `every` iterations, rank 0's save at
// iteration 2×every fails as if the device were full. The run must complete
// with bit-identical relations, the degradation must be counted and
// observed (the rank carries on against an in-memory fallback sink), and
// the generations written before the failure must survive on disk.
func DiskFullDegradation(sc Scenario, ranks, every int) (*OverloadReport, error) {
	rep := &OverloadReport{}
	clean, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs},
		sc.Load, collect(sc.Rels, &rep.Clean))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: fault-free run failed: %w", sc.Name, err)
	}
	if clean.Iterations <= 2*every {
		return nil, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, disk-full at checkpoint %d would never fire",
			sc.Name, clean.Iterations, 2*every)
	}
	dir, err := os.MkdirTemp("", "paralagg-chaos-diskfull-")
	if err != nil {
		return nil, fmt.Errorf("chaos %s: temp checkpoint dir: %w", sc.Name, err)
	}
	defer os.RemoveAll(dir)

	obs := &overloadObserver{}
	before := paralagg.CheckpointDegradations()
	_, err = exec(sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     paralagg.NewFileCheckpointSink(dir),
		Observer:        obs,
		Faults: &paralagg.FaultPlan{
			Seed:      1,
			DiskFulls: []paralagg.DiskFull{{Rank: 0, Iter: 2 * every}},
		},
	}, sc.Load, collect(sc.Rels, &rep.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: run with a full checkpoint device aborted instead of degrading: %w", sc.Name, err)
	}
	rep.DegradationsDelta = paralagg.CheckpointDegradations() - before
	if rep.DegradationsDelta < 1 {
		return nil, fmt.Errorf("chaos %s: injected disk-full never degraded a sink", sc.Name)
	}
	if got := obs.degraded.Load(); got < 1 {
		return nil, fmt.Errorf("chaos %s: checkpoint degradation raised no observer event", sc.Name)
	}
	// The save at iteration `every` preceded the failure: the degraded
	// rank's on-disk generation must survive untouched. (A complete agreed
	// set need not: the healthy ranks keep checkpointing to disk and prune
	// past the degraded rank's last file-backed save — cross-restart
	// recovery is void after degradation, which is why it warns.)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: reading checkpoint dir: %w", sc.Name, err)
	}
	rank0Gens := 0
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), "rank-0000.") && strings.HasSuffix(ent.Name(), ".ckpt") {
			rank0Gens++
		}
	}
	if rank0Gens == 0 {
		return nil, fmt.Errorf("chaos %s: the degraded rank's pre-failure generation vanished from disk", sc.Name)
	}
	return rep, nil
}
