// Package chaos differentially tests the runtime's fault tolerance. For
// each query scenario a fault-free run fixes the expected answer; a run
// with an injected mid-fixpoint crash must surface a structured
// ErrRankFailed (never a deadlock or a wrong answer); and a checkpoint
// resume must reproduce the fault-free answer bit for bit. Because all
// aggregation is over lattice joins, the final relation contents are
// independent of the iteration a crash interrupts, which is what makes the
// bit-identical comparison sound.
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

// Schedule is the collective schedule every world the harness builds runs
// under ("" = flat). The -chaos* suites thread -collective-schedule through
// here so the whole battery — crash/resume, wire faults, integrity,
// overload, hot replacement — can be replayed under tree or ring routing;
// the differentials' bit-identical bars then prove recovery does not depend
// on the reduction shape the collectives route through.
var Schedule string

// exec and supervise wrap the runtime entry points, stamping the suite-wide
// schedule onto every world the harness builds (gang members included:
// their configs are copied from bases that pass through here too).
func exec(prog *paralagg.Program, cfg paralagg.Config, load, inspect func(*paralagg.Rank) error) (*paralagg.Result, error) {
	cfg.CollectiveSchedule = Schedule
	return paralagg.Exec(prog, cfg, load, inspect)
}

func supervise(prog *paralagg.Program, cfg paralagg.SuperviseConfig, load, inspect func(*paralagg.Rank) error) (*paralagg.Result, *paralagg.SuperviseReport, error) {
	cfg.Config.CollectiveSchedule = Schedule
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

// Report is the outcome of one Differential run.
type Report struct {
	// Clean holds the fault-free fingerprints, Recovered the
	// crash-checkpoint-resume ones; Identical compares them.
	Clean     map[string]Fingerprint
	Recovered map[string]Fingerprint
	// CrashErr is the structured error the faulted run surfaced.
	CrashErr error
	// CleanIters and ResumeIters are total fixpoint iterations of the two
	// successful runs. The resumed count includes the restored (skipped)
	// prefix, so the two must agree when the fixpoint replays the same
	// trajectory.
	CleanIters  int
	ResumeIters int
	// RecoverySeconds is the simulated time the resumed run spent restoring
	// the snapshot; positive iff a checkpoint was actually reloaded.
	RecoverySeconds float64
}

// Identical reports whether the recovered run reproduced the fault-free
// relation contents exactly.
func (r *Report) Identical() bool {
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

// Differential runs sc three times on a world of the given rank count:
// fault-free; with checkpointing every `every` iterations and rank
// (ranks-1) crashing as it enters the tuple exchange of iteration
// crashIter; and resumed from the surviving checkpoint. It errors unless
// the crash surfaces as a structured ErrRankFailed and the resume
// completes; the caller compares fingerprints with Report.Identical.
func Differential(sc Scenario, ranks, every, crashIter int) (*Report, error) {
	rep := &Report{}
	clean, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs},
		sc.Load, collect(sc.Rels, &rep.Clean))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: fault-free run failed: %w", sc.Name, err)
	}
	rep.CleanIters = clean.Iterations
	if clean.Iterations <= crashIter {
		return nil, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, crash at %d would never fire",
			sc.Name, clean.Iterations, crashIter)
	}

	sink := paralagg.NewMemoryCheckpointSink()
	victim := ranks - 1
	_, err = exec(sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     sink,
		// Adaptive deadline with the old fixed value as ceiling: the suite
		// doubles as the no-false-positives check for the EWMA watchdog.
		AdaptiveWatchdog: true,
		WatchdogCeil:     5 * time.Second,
		Faults: &paralagg.FaultPlan{
			Seed:    1,
			Crashes: []paralagg.Crash{{Rank: victim, Iter: crashIter, Op: "alltoallv"}},
		},
	}, sc.Load, nil)
	if err == nil {
		return nil, fmt.Errorf("chaos %s: injected crash of rank %d produced no error", sc.Name, victim)
	}
	rep.CrashErr = err
	rf, ok := paralagg.AsRankFailure(err)
	if !ok {
		return nil, fmt.Errorf("chaos %s: crash error carries no ErrRankFailed: %w", sc.Name, err)
	}
	if rf.Rank != victim || rf.Iter != crashIter || !errors.Is(rf, paralagg.ErrInjectedCrash) {
		return nil, fmt.Errorf("chaos %s: failure %v does not match the injected crash (rank %d, iter %d)",
			sc.Name, rf, victim, crashIter)
	}

	resumed, err := exec(sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     sink,
		Resume:          true,
	}, sc.Load, collect(sc.Rels, &rep.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: resume after crash failed: %w", sc.Name, err)
	}
	rep.ResumeIters = resumed.Iterations
	rep.RecoverySeconds = resumed.PhaseSeconds["recovery"]
	return rep, nil
}

// ElasticReport is the outcome of one supervised differential: a fault-free
// run fixes the answer, then a single supervised run crashes mid-fixpoint
// and recovers automatically — possibly more than once, possibly into a
// different world size — and must land on the identical relation contents.
type ElasticReport struct {
	Clean     map[string]Fingerprint
	Recovered map[string]Fingerprint
	// RecoveryAttempts and RanksLost come from the supervisor's report.
	RecoveryAttempts int
	RanksLost        []int
	// FinalRanks is the world size the run finished on.
	FinalRanks int
	// RemapSeconds and RecoverySeconds are the simulated time the final
	// world spent in the elastic remap / same-size restore phases.
	RemapSeconds    float64
	RecoverySeconds float64
}

// Identical reports whether the supervised run reproduced the fault-free
// relation contents exactly.
func (r *ElasticReport) Identical() bool {
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

// elastic is the shared body of Elastic and Repeated: run sc fault-free at
// ranks, then once under supervision with the given config, and compare.
func elastic(sc Scenario, ranks, minIters int, cfg paralagg.SuperviseConfig) (*ElasticReport, error) {
	rep := &ElasticReport{}
	clean, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs},
		sc.Load, collect(sc.Rels, &rep.Clean))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: fault-free run failed: %w", sc.Name, err)
	}
	if clean.Iterations <= minIters {
		return nil, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, crash at %d would never fire",
			sc.Name, clean.Iterations, minIters)
	}

	res, srep, err := supervise(sc.Prog(), cfg, sc.Load, collect(sc.Rels, &rep.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: supervised run failed: %w", sc.Name, err)
	}
	if srep.RecoveryAttempts == 0 {
		return nil, fmt.Errorf("chaos %s: injected crash never fired — nothing was recovered", sc.Name)
	}
	rep.RecoveryAttempts = srep.RecoveryAttempts
	rep.RanksLost = srep.RanksLost
	rep.FinalRanks = srep.FinalRanks
	rep.RemapSeconds = res.PhaseSeconds["remap"]
	rep.RecoverySeconds = res.PhaseSeconds["recovery"]
	return rep, nil
}

// Elastic runs sc fault-free at ranks, then once under supervision with
// rank (ranks-1) crashing as it enters iteration crashIter's tuple
// exchange; the supervisor rebuilds the world at restartRanks (same size,
// degraded, halved — the caller picks) and restores the checkpoint into it,
// re-hashed when the size changed. The recovered relations must be
// bit-identical to the fault-free ones.
func Elastic(sc Scenario, ranks, every, crashIter, restartRanks int) (*ElasticReport, error) {
	cfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:            ranks,
			Subs:             sc.Subs,
			CheckpointEvery:  every,
			Checkpoints:      paralagg.NewMemoryCheckpointSink(),
			AdaptiveWatchdog: true,
			WatchdogCeil:     5 * time.Second,
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
	rep, err := elastic(sc, ranks, crashIter, cfg)
	if err != nil {
		return nil, err
	}
	if rep.FinalRanks != restartRanks {
		return nil, fmt.Errorf("chaos %s: recovered world has %d ranks, want %d", sc.Name, rep.FinalRanks, restartRanks)
	}
	return rep, nil
}

// Repeated runs sc fault-free, then under supervision with TWO crashes
// across successive recoveries: rank (ranks-1) dies at iteration 3 of the
// initial world, and after that recovery rank 0 dies at iteration 5 of the
// restarted world. The second recovery must still reproduce the fault-free
// answer bit for bit.
func Repeated(sc Scenario, ranks, every int) (*ElasticReport, error) {
	const firstCrash, secondCrash = 3, 5
	plans := []*paralagg.FaultPlan{
		{Seed: 1, Crashes: []paralagg.Crash{{Rank: ranks - 1, Iter: firstCrash, Op: "alltoallv"}}},
		{Seed: 2, Crashes: []paralagg.Crash{{Rank: 0, Iter: secondCrash, Op: "alltoallv"}}},
	}
	cfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:            ranks,
			Subs:             sc.Subs,
			CheckpointEvery:  every,
			Checkpoints:      paralagg.NewMemoryCheckpointSink(),
			AdaptiveWatchdog: true,
			WatchdogCeil:     5 * time.Second,
		},
		RecoveryBackoff: time.Millisecond,
		FaultsFor: func(attempt int) *paralagg.FaultPlan {
			if attempt < len(plans) {
				return plans[attempt]
			}
			return nil
		},
	}
	rep, err := elastic(sc, ranks, secondCrash, cfg)
	if err != nil {
		return nil, err
	}
	if rep.RecoveryAttempts != 2 {
		return nil, fmt.Errorf("chaos %s: expected 2 recoveries (two injected crashes), got %d",
			sc.Name, rep.RecoveryAttempts)
	}
	return rep, nil
}

// StuckCollective runs sc with rank (1 mod ranks) hanging forever inside
// iteration 2's tuple exchange and the ADAPTIVE watchdog armed with timeout
// as its ceiling, returning the run's error: without a watchdog this
// schedule deadlocks the world; with it every rank must observe a
// structured ErrRankFailed — and because two healthy iterations have
// already fed the EWMA, the conversion happens near the deadline floor,
// well inside the ceiling.
func StuckCollective(sc Scenario, ranks int, timeout time.Duration) error {
	_, err := exec(sc.Prog(), paralagg.Config{
		Ranks:            ranks,
		Subs:             sc.Subs,
		AdaptiveWatchdog: true,
		WatchdogCeil:     timeout,
		Faults: &paralagg.FaultPlan{
			Seed:  1,
			Hangs: []paralagg.Hang{{Rank: 1 % ranks, Iter: 2, Op: "alltoallv"}},
		},
	}, sc.Load, nil)
	return err
}
