// Package chaos differentially tests the runtime's fault tolerance. For
// each query scenario a fault-free run fixes the expected answer; a run
// with an injected mid-fixpoint crash must surface a structured
// ErrRankFailed (never a deadlock or a wrong answer); and a checkpoint
// resume must reproduce the fault-free answer bit for bit. Because all
// aggregation is over lattice joins, the final relation contents are
// independent of the iteration a crash interrupts, which is what makes the
// bit-identical comparison sound. The same shape — run clean, run faulted,
// compare fingerprints, demand evidence the fault bit — covers wire faults,
// silent corruption, overload, hot replacement and serving; table.go binds
// every differential to its grid as the one table both drivers loop over.
package chaos

import (
	"errors"
	"fmt"
	"time"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

// Scenario is one query workload the harness can exercise. Load must be
// deterministic: the harness re-runs it for every world it builds.
type Scenario struct {
	Name string
	Prog func() *paralagg.Program
	Load func(rk *paralagg.Rank) error
	// Rels lists the relations whose final contents the differential
	// compares.
	Rels []string
	// Subs is the sub-bucket count the harness runs the scenario with
	// (0 = 1 = off). Skewed scenarios set it so crashes and elastic
	// restores exercise sub-bucket placement, not just bucket hashing.
	Subs int
}

// Scenarios returns the standard workloads: SSSP and connected components
// on a small grid, transitive closure on a chain, and SSSP on a hub-heavy
// social graph with sub-bucketing on — the skew case whose remap must
// respect sub-bucket placement. The graphs are sized so the fixpoints run
// clearly past the default crash iteration.
func Scenarios() []Scenario {
	ssspG := graph.Grid("chaos-grid-sssp", 4, 4, 8, 11)
	ccG := graph.Grid("chaos-grid-cc", 4, 4, 1, 12)
	tcG := graph.Chain("chaos-chain-tc", 10, 1, 13)
	skewG := graph.Social("chaos-social-sssp", 6, 220, 3, 24, 64, 17)
	// Hub shortcuts keep the social core's diameter tiny, so on its own the
	// SSSP fixpoint converges before the harness's later crash iterations
	// ever fire. A weighted chain tail off the source guarantees depth while
	// leaving the hub-heavy degree skew (the point of this scenario) intact.
	tail := skewG.Nodes
	skewG.Nodes += 8
	for i := 0; i < 8; i++ {
		u := uint64(0)
		if i > 0 {
			u = uint64(tail + i - 1)
		}
		skewG.Edges = append(skewG.Edges, graph.Edge{U: u, V: uint64(tail + i), W: 3})
	}
	return []Scenario{
		{
			Name: "sssp",
			Prog: queries.SSSPProgram,
			Load: func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, ssspG, []uint64{0, 5}) },
			Rels: []string{"edge", "spath"},
		},
		{
			Name: "cc",
			Prog: queries.CCProgram,
			Load: func(rk *paralagg.Rank) error { return queries.LoadCC(rk, ccG) },
			Rels: []string{"edge", "cc"},
		},
		{
			Name: "tc",
			Prog: queries.TCProgram,
			Load: func(rk *paralagg.Rank) error { return queries.LoadTC(rk, tcG) },
			Rels: []string{"edge", "path"},
		},
		{
			Name: "sssp-skew",
			Prog: queries.SSSPProgram,
			Load: func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, skewG, []uint64{0}) },
			Rels: []string{"edge", "spath"},
			Subs: 4,
		},
	}
}

// exec and supervise wrap the runtime entry points, stamping the collective
// schedule a check runs under ("" = flat) onto every world the harness
// builds (gang members included: their configs are copied from bases that
// pass through here too). Every check takes the schedule as an argument so
// the whole battery — crash/resume, wire faults, integrity, overload, hot
// replacement — can be replayed under tree routing; the bit-identical
// bar then proves recovery does not depend on the reduction shape.
func exec(schedule string, prog *paralagg.Program, cfg paralagg.Config, load, inspect func(*paralagg.Rank) error) (*paralagg.Result, error) {
	cfg.CollectiveSchedule = schedule
	return paralagg.Exec(prog, cfg, load, inspect)
}

func supervise(schedule string, prog *paralagg.Program, cfg paralagg.SuperviseConfig, load, inspect func(*paralagg.Rank) error) (*paralagg.Result, *paralagg.SuperviseReport, error) {
	cfg.Config.CollectiveSchedule = schedule
	return paralagg.Supervise(prog, cfg, load, inspect)
}

// Fingerprint is an order-independent digest of a relation's global
// contents: the tuple count plus two independently seeded hash sums. Equal
// fingerprints mean (up to hash collision) identical tuple sets.
type Fingerprint struct {
	Count uint64
	Sum1  uint64
	Sum2  uint64
}

func hashTuple(t paralagg.Tuple, seed uint64) uint64 {
	h := seed
	for _, v := range t {
		h ^= uint64(v)
		// splitmix64 finalizer: full avalanche per column.
		h += 0x9e3779b97f4a7c15
		h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
		h = (h ^ (h >> 27)) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}

// collect builds an inspect callback that fingerprints rels globally
// (collective sums over every rank's local tuples) and stores the result
// through dst on rank 0.
func collect(rels []string, dst *map[string]Fingerprint) func(*paralagg.Rank) error {
	return func(rk *paralagg.Rank) error {
		fps := make(map[string]Fingerprint, len(rels))
		for _, rel := range rels {
			var cnt, s1, s2 uint64
			if err := rk.Each(rel, func(t paralagg.Tuple) {
				cnt++
				s1 += hashTuple(t, 0xa076_1d64_78bd_642f)
				s2 += hashTuple(t, 0xe703_7ed1_a0b4_28db)
			}); err != nil {
				return err
			}
			fps[rel] = Fingerprint{
				Count: rk.Reduce(cnt, paralagg.OpSum),
				Sum1:  rk.Reduce(s1, paralagg.OpSum),
				Sum2:  rk.Reduce(s2, paralagg.OpSum),
			}
		}
		if rk.ID() == 0 {
			*dst = fps
		}
		return nil
	}
}

// Outcome is what every differential returns. One that returns without
// error has already made every assertion it owns — the recovered
// fingerprints equal the fault-free ones, the fault demonstrably bit, the
// repair took the route it should — so callers read an Outcome for evidence,
// not for a verdict.
type Outcome struct {
	// Clean holds the fault-free fingerprints, Recovered the ones the
	// faulted-and-repaired run produced.
	Clean     map[string]Fingerprint
	Recovered map[string]Fingerprint
	// Evidence is one line saying how the fault bit and how it was repaired.
	Evidence string
	// MTTR is the wall clock from the victim's death to the whole
	// computation completing (timed recovery differentials only).
	MTTR time.Duration
}

// identical is the harness's one fingerprint comparison: got must hold
// exactly want's relations with exactly want's digests.
func identical(what string, want, got map[string]Fingerprint) error {
	same := len(want) == len(got)
	for rel, fp := range want {
		same = same && got[rel] == fp
	}
	if !same {
		return fmt.Errorf("chaos %s: relations diverge from the fault-free run:\nclean:     %v\nrecovered: %v", what, want, got)
	}
	return nil
}

// verdict closes a differential: the recovered relations must be
// bit-identical to the fault-free ones, and the evidence line is recorded.
func (o *Outcome) verdict(what, format string, args ...any) (*Outcome, error) {
	if err := identical(what, o.Clean, o.Recovered); err != nil {
		return nil, err
	}
	o.Evidence = fmt.Sprintf(format, args...)
	return o, nil
}

// reference runs sc fault-free in-process under cfg — the answer every
// differential compares against — and requires the fixpoint to run past
// faultIter, or the fault a differential injects there would never fire.
func reference(sc Scenario, schedule string, cfg paralagg.Config, faultIter int) (*Outcome, *paralagg.Result, error) {
	o := &Outcome{}
	cfg.Subs = sc.Subs
	res, err := exec(schedule, sc.Prog(), cfg, sc.Load, collect(sc.Rels, &o.Clean))
	if err != nil {
		return nil, nil, fmt.Errorf("chaos %s: fault-free reference run failed: %w", sc.Name, err)
	}
	if res.Iterations <= faultIter {
		return nil, nil, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, a fault at iteration %d would never fire",
			sc.Name, res.Iterations, faultIter)
	}
	return o, res, nil
}

// Differential runs sc three times on a world of the given rank count:
// fault-free; with checkpointing every `every` iterations and rank
// (ranks-1) crashing as it enters the tuple exchange of iteration
// crashIter; and resumed from the surviving checkpoint. The crash must
// surface as a structured ErrRankFailed naming the victim, and the resume
// must restore a checkpoint, replay the clean run's trajectory to the same
// iteration count, and land bit-identical.
func Differential(sc Scenario, schedule string, ranks, every, crashIter int) (*Outcome, error) {
	o, clean, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, crashIter)
	if err != nil {
		return nil, err
	}

	sink := paralagg.NewMemoryCheckpointSink()
	victim := ranks - 1
	_, err = exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     sink,
		// Every faulted run doubles as the no-false-positives check for the
		// EWMA deadline.
		Watchdog: 5 * time.Second,
		Faults: &paralagg.FaultPlan{
			Seed:    1,
			Crashes: []paralagg.Crash{{Rank: victim, Iter: crashIter, Op: "alltoallv"}},
		},
	}, sc.Load, nil)
	if err == nil {
		return nil, fmt.Errorf("chaos %s: injected crash of rank %d produced no error", sc.Name, victim)
	}
	rf, ok := paralagg.AsRankFailure(err)
	if !ok {
		return nil, fmt.Errorf("chaos %s: crash error carries no ErrRankFailed: %w", sc.Name, err)
	}
	if rf.Rank != victim || rf.Iter != crashIter || !errors.Is(rf, paralagg.ErrInjectedCrash) {
		return nil, fmt.Errorf("chaos %s: failure %v does not match the injected crash (rank %d, iter %d)",
			sc.Name, rf, victim, crashIter)
	}

	resumed, err := exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     sink,
		Resume:          true,
	}, sc.Load, collect(sc.Rels, &o.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: resume after crash failed: %w", sc.Name, err)
	}
	// The resumed count includes the restored (skipped) prefix, so the two
	// agree when the fixpoint replays the same trajectory.
	if resumed.Iterations != clean.Iterations {
		return nil, fmt.Errorf("chaos %s: resume ended at iteration %d, clean run at %d: the trajectories diverged",
			sc.Name, resumed.Iterations, clean.Iterations)
	}
	recovery := resumed.PhaseSeconds["recovery"]
	if recovery <= 0 {
		return nil, fmt.Errorf("chaos %s: resumed run metered no recovery phase: no checkpoint was restored", sc.Name)
	}
	return o.verdict(sc.Name, "crash at iter %d, resumed, %d relations bit-identical (recovery %.3fms)",
		crashIter, len(o.Clean), recovery*1e3)
}

// elastic is the shared body of Elastic and Repeated: run sc fault-free at
// ranks, then once under supervision with the given config, and compare.
func elastic(sc Scenario, schedule string, ranks, minIters int, cfg paralagg.SuperviseConfig) (*Outcome, *paralagg.Result, *paralagg.SuperviseReport, error) {
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, minIters)
	if err != nil {
		return nil, nil, nil, err
	}
	res, srep, err := supervise(schedule, sc.Prog(), cfg, sc.Load, collect(sc.Rels, &o.Recovered))
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos %s: supervised run failed: %w", sc.Name, err)
	}
	return o, res, srep, nil
}

// Elastic runs sc fault-free at ranks, then once under supervision with
// rank (ranks-1) crashing as it enters iteration crashIter's tuple
// exchange; the supervisor rebuilds the world at restartRanks (same size,
// degraded, halved — the caller picks) and restores the checkpoint into it,
// re-hashed when the size changed. Exactly one recovery, of exactly that
// rank, must happen; the restore must be metered under the phase its route
// names; and the recovered relations must be bit-identical.
func Elastic(sc Scenario, schedule string, ranks, every, crashIter, restartRanks int) (*Outcome, error) {
	cfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:           ranks,
			Subs:            sc.Subs,
			CheckpointEvery: every,
			Checkpoints:     paralagg.NewMemoryCheckpointSink(),
			Watchdog:        5 * time.Second,
			Faults: &paralagg.FaultPlan{
				Seed:    1,
				Crashes: []paralagg.Crash{{Rank: ranks - 1, Iter: crashIter, Op: "alltoallv"}},
			},
		},
		RecoveryBackoff: time.Millisecond,
	}
	if restartRanks != ranks {
		cfg.RanksFor = func(restart, prev int, lost []int) int { return restartRanks }
	}
	o, res, srep, err := elastic(sc, schedule, ranks, crashIter, cfg)
	if err != nil {
		return nil, err
	}
	if srep.RecoveryAttempts != 1 {
		return nil, fmt.Errorf("chaos %s: RecoveryAttempts = %d, want 1", sc.Name, srep.RecoveryAttempts)
	}
	if len(srep.RanksLost) != 1 || srep.RanksLost[0] != ranks-1 {
		return nil, fmt.Errorf("chaos %s: RanksLost = %v, want [%d]", sc.Name, srep.RanksLost, ranks-1)
	}
	if srep.FinalRanks != restartRanks {
		return nil, fmt.Errorf("chaos %s: recovered world has %d ranks, want %d", sc.Name, srep.FinalRanks, restartRanks)
	}
	remap, recovery := res.PhaseSeconds["remap"], res.PhaseSeconds["recovery"]
	if restartRanks == ranks && recovery <= 0 {
		return nil, fmt.Errorf("chaos %s: same-size recovery metered no recovery phase", sc.Name)
	}
	if restartRanks != ranks && remap <= 0 {
		return nil, fmt.Errorf("chaos %s: elastic recovery metered no remap phase", sc.Name)
	}
	return o.verdict(sc.Name, "auto-recovered (%d attempt, remap %.3fms, recovery %.3fms)",
		srep.RecoveryAttempts, remap*1e3, recovery*1e3)
}

// Repeated runs sc fault-free, then under supervision with TWO crashes
// across successive recoveries: rank (ranks-1) dies at iteration 3 of the
// initial world, and after that recovery rank 0 dies at iteration 5 of the
// restarted world. The second recovery must still reproduce the fault-free
// answer bit for bit.
func Repeated(sc Scenario, schedule string, ranks, every int) (*Outcome, error) {
	const firstCrash, secondCrash = 3, 5
	plans := []*paralagg.FaultPlan{
		{Seed: 1, Crashes: []paralagg.Crash{{Rank: ranks - 1, Iter: firstCrash, Op: "alltoallv"}}},
		{Seed: 2, Crashes: []paralagg.Crash{{Rank: 0, Iter: secondCrash, Op: "alltoallv"}}},
	}
	cfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:           ranks,
			Subs:            sc.Subs,
			CheckpointEvery: every,
			Checkpoints:     paralagg.NewMemoryCheckpointSink(),
			Watchdog:        5 * time.Second,
		},
		RecoveryBackoff: time.Millisecond,
		FaultsFor: func(attempt int) *paralagg.FaultPlan {
			if attempt < len(plans) {
				return plans[attempt]
			}
			return nil
		},
	}
	o, _, srep, err := elastic(sc, schedule, ranks, secondCrash, cfg)
	if err != nil {
		return nil, err
	}
	if srep.RecoveryAttempts != 2 || len(srep.RanksLost) != 2 {
		return nil, fmt.Errorf("chaos %s: %d recoveries of ranks %v, want one per injected crash (2)",
			sc.Name, srep.RecoveryAttempts, srep.RanksLost)
	}
	return o.verdict(sc.Name, "two crashes across recoveries, %d recoveries, ranks lost %v",
		srep.RecoveryAttempts, srep.RanksLost)
}

// StuckCollective runs sc with rank (1 mod ranks) hanging forever inside
// iteration 2's tuple exchange and the watchdog armed with timeout as its
// ceiling, returning the run's error: without a watchdog this schedule
// deadlocks the world; with it every rank must observe a structured
// ErrRankFailed — and because two healthy iterations have already fed the
// EWMA, the conversion happens near the deadline floor, well inside the
// ceiling.
func StuckCollective(sc Scenario, schedule string, ranks int, timeout time.Duration) error {
	_, err := exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:    ranks,
		Subs:     sc.Subs,
		Watchdog: timeout,
		Faults: &paralagg.FaultPlan{
			Seed:  1,
			Hangs: []paralagg.Hang{{Rank: 1 % ranks, Iter: 2, Op: "alltoallv"}},
		},
	}, sc.Load, nil)
	return err
}

// stuck asserts what StuckCollective's error must be: the watchdog converts
// the hung collective into ErrRankFailed on every rank instead of a
// deadlock, and blames the rank that hung.
func stuck(sc Scenario, schedule string, ranks int) (*Outcome, error) {
	err := StuckCollective(sc, schedule, ranks, 500*time.Millisecond)
	if err == nil {
		return nil, fmt.Errorf("chaos %s: hung collective produced no error", sc.Name)
	}
	rf, ok := paralagg.AsRankFailure(err)
	if !ok {
		return nil, fmt.Errorf("chaos %s: hung collective error is unstructured: %w", sc.Name, err)
	}
	if rf.Rank != 1%ranks || !errors.Is(rf, paralagg.ErrWatchdogTimeout) {
		return nil, fmt.Errorf("chaos %s: failure = %v, want watchdog death of rank %d", sc.Name, rf, 1%ranks)
	}
	// World.Run joins one error per rank that died of the failure.
	u, ok := err.(interface{ Unwrap() []error })
	if !ok || len(u.Unwrap()) != ranks {
		return nil, fmt.Errorf("chaos %s: every one of %d ranks must observe the failure, got %w", sc.Name, ranks, err)
	}
	return &Outcome{Evidence: fmt.Sprintf("stuck collective surfaced on all %d ranks as the watchdog death of rank %d", ranks, rf.Rank)}, nil
}
