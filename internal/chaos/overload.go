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
func TCPSlowConsumer(sc Scenario, schedule string, ranks, window int) (*Outcome, error) {
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, 0)
	if err != nil {
		return nil, err
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
	base := paralagg.Config{Subs: sc.Subs, Watchdog: 10 * time.Second}
	errs := runGang(sc, schedule, trs, base, &o.Recovered)
	var stats paralagg.NetStats
	for _, tr := range trs {
		stats = stats.Add(tr.Net())
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chaos %s: TCP rank %d failed under a slow consumer: %w", sc.Name, rank, err)
		}
	}
	if stats.ThrottleStalls == 0 {
		return nil, fmt.Errorf("chaos %s: no throttle stalls recorded — the slow consumer never exhausted the window", sc.Name)
	}
	if stats.OutboxPeakFrames > int64(window) {
		return nil, fmt.Errorf("chaos %s: sender outbox peaked at %d frames, past the %d-frame window",
			sc.Name, stats.OutboxPeakFrames, window)
	}
	return o.verdict(sc.Name, "throttled inside the window, bit-identical (stalls=%d outboxPeak=%d/%d)",
		stats.ThrottleStalls, stats.OutboxPeakFrames, window)
}

// pressureIter is the iteration the memory differentials inject their
// phantom charge at; every chaos scenario's fixpoint runs clearly past it.
const pressureIter = 3

// probeBudget runs sc with an effectively unlimited budget to measure the
// workload's real accounted peak (the scale every budget below derives
// from) and to fix the reference fingerprints.
func probeBudget(sc Scenario, schedule string, ranks int) (*Outcome, int64, error) {
	o, res, err := reference(sc, schedule, paralagg.Config{Ranks: ranks, MemBudget: 1 << 40}, pressureIter)
	if err != nil {
		return nil, 0, err
	}
	if res.MemPeakBytes <= 0 {
		return nil, 0, fmt.Errorf("chaos %s: budget probe recorded no accounted memory", sc.Name)
	}
	return o, res.MemPeakBytes, nil
}

// MemPressureSoft proves the soft rung of the pressure ladder: a probe run
// measures the workload's accounted peak P, then the same workload runs
// with budget 16P and a one-time phantom charge of 0.9×budget injected on
// the last rank at iteration 3. The phantom lifts that rank into the soft
// band for the rest of the run, so every iteration from there on must shed
// scratch world-wide (the response is collective) — and the run must still
// complete with bit-identical relations and an accounted peak inside the
// budget. The hard rung must never fire.
func MemPressureSoft(sc Scenario, schedule string, ranks int) (*Outcome, error) {
	o, peak, err := probeBudget(sc, schedule, ranks)
	if err != nil {
		return nil, err
	}
	budget := 16 * peak
	phantom := budget / 10 * 9 // soft band on its own; real usage adds < budget/16
	obs := &overloadObserver{}
	res, err := exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:     ranks,
		Subs:      sc.Subs,
		MemBudget: budget,
		Observer:  obs,
		Faults: &paralagg.FaultPlan{
			Seed:         1,
			MemPressures: []paralagg.MemPressure{{Rank: ranks - 1, Iter: pressureIter, Bytes: phantom}},
		},
	}, sc.Load, collect(sc.Rels, &o.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: run under soft memory pressure failed: %w", sc.Name, err)
	}
	soft, hard := obs.soft.Load(), obs.hard.Load()
	if soft == 0 {
		return nil, fmt.Errorf("chaos %s: injected phantom pressure raised no soft response", sc.Name)
	}
	if hard != 0 {
		return nil, fmt.Errorf("chaos %s: soft-band pressure escalated to %d hard responses", sc.Name, hard)
	}
	if res.MemPeakBytes > budget {
		return nil, fmt.Errorf("chaos %s: accounted peak %d exceeds the %d budget", sc.Name, res.MemPeakBytes, budget)
	}
	if res.MemPeakBytes < budget*85/100 {
		return nil, fmt.Errorf("chaos %s: accounted peak %d never reached the soft band of budget %d — the phantom never bit",
			sc.Name, res.MemPeakBytes, budget)
	}
	return o.verdict(sc.Name, "%d shed responses, peak %d of %d budgeted bytes, bit-identical",
		soft, res.MemPeakBytes, budget)
}

// MemPressureHard proves the hard rung never becomes an OOM kill: with a
// phantom charge of a full budget injected mid-fixpoint, every rank must
// fail in the same iteration with a structured ErrMemoryBudget (inside the
// usual ErrRankFailed), and a supervised run with checkpointing on must
// recover past the (attempt-0-only) fault to the bit-identical answer.
func MemPressureHard(sc Scenario, schedule string, ranks, every int) (*Outcome, error) {
	o, peak, err := probeBudget(sc, schedule, ranks)
	if err != nil {
		return nil, err
	}
	budget := 16 * peak
	plan := &paralagg.FaultPlan{
		Seed:         1,
		MemPressures: []paralagg.MemPressure{{Rank: ranks - 1, Iter: pressureIter, Bytes: budget}},
	}

	// Unsupervised: the violation must surface structurally on every rank
	// (the ladder's response is collective) and name the budget.
	_, err = exec(schedule, sc.Prog(), paralagg.Config{
		Ranks: ranks, Subs: sc.Subs, MemBudget: budget, Faults: plan,
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
	if mb.Budget != budget || mb.Used < mb.Budget {
		return nil, fmt.Errorf("chaos %s: budget violation %v does not match the configured budget %d", sc.Name, mb, budget)
	}

	// Supervised: the default attempt-0-only fault policy drops the phantom
	// on restart, so recovery resumes from the pre-violation checkpoint and
	// must land on the fault-free answer.
	scfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:           ranks,
			Subs:            sc.Subs,
			MemBudget:       budget,
			CheckpointEvery: every,
			Checkpoints:     paralagg.NewMemoryCheckpointSink(),
			Faults:          plan,
		},
		RecoveryBackoff: time.Millisecond,
	}
	_, srep, err := supervise(schedule, sc.Prog(), scfg, sc.Load, collect(sc.Rels, &o.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: supervised recovery from a hard budget failed: %w", sc.Name, err)
	}
	if srep.RecoveryAttempts != 1 {
		return nil, fmt.Errorf("chaos %s: %d supervised recoveries, want exactly 1 (the injected hard pressure)", sc.Name, srep.RecoveryAttempts)
	}
	return o.verdict(sc.Name, "structured budget failure at iter %d, %d supervised recovery, bit-identical",
		mb.Iter, srep.RecoveryAttempts)
}

// DiskFullDegradation proves checkpointing degrades instead of aborting:
// with file-backed checkpointing every `every` iterations, rank 0's save at
// iteration 2×every fails as if the device were full. The run must complete
// with bit-identical relations, the degradation must be counted and
// observed (the rank carries on against an in-memory fallback sink), and
// the generations written before the failure must survive on disk.
func DiskFullDegradation(sc Scenario, schedule string, ranks, every int) (*Outcome, error) {
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, 2*every)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp("", "paralagg-chaos-diskfull-")
	if err != nil {
		return nil, fmt.Errorf("chaos %s: temp checkpoint dir: %w", sc.Name, err)
	}
	defer os.RemoveAll(dir)

	obs := &overloadObserver{}
	before := paralagg.CheckpointDegradations()
	_, err = exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     paralagg.NewFileCheckpointSink(dir),
		Observer:        obs,
		Faults: &paralagg.FaultPlan{
			Seed:      1,
			DiskFulls: []paralagg.DiskFull{{Rank: 0, Iter: 2 * every}},
		},
	}, sc.Load, collect(sc.Rels, &o.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: run with a full checkpoint device aborted instead of degrading: %w", sc.Name, err)
	}
	degradations := paralagg.CheckpointDegradations() - before
	if degradations < 1 {
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
	return o.verdict(sc.Name, "degraded to in-memory checkpointing (%d), run completed bit-identical", degradations)
}
