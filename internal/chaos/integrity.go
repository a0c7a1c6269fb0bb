package chaos

import (
	"fmt"
	"time"

	"paralagg"
)

// State-integrity chaos: the same differential discipline as the
// crash/restart suite, applied to SILENT faults — bit flips in a relation's
// in-memory state and bit rot in checkpoint files. A crash is loud; these
// faults produce wrong answers quietly unless the integrity machinery
// catches them. The differentials prove (1) online divergence detection
// fires within the corrupted iteration on every rank, (2) the supervisor
// rolls back to the last verified checkpoint and lands bit-identical, and
// (3) a corrupted checkpoint generation is quarantined and recovery falls
// back exactly one generation.

// CorruptionDifferential proves end-to-end divergence self-healing on sc:
// a fault-free run with integrity checking on fixes the answer (and proves
// the checker raises no false positives); a run where one stored tuple of
// the scenario's computed relation is bit-flipped on rank 0 (sub-bucketed
// layouts concentrate the relation's state on sub-bucket-0 owners, and
// rank 0 holds a shard in every layout the suite runs) at the
// top of iteration corruptIter must fail on EVERY rank with a structured
// ErrStateDiverged naming that same iteration — detection within one
// iteration, no wrong answer escaping; and a supervised run with the same
// fault must roll back to the last verified checkpoint (corruptIter must
// not be the first checkpoint iteration, so one exists) and reproduce the
// fault-free relations bit for bit.
func CorruptionDifferential(sc Scenario, schedule string, ranks, every, corruptIter int) (*Outcome, error) {
	if corruptIter <= every {
		return nil, fmt.Errorf("chaos %s: corruptIter %d must exceed CheckpointEvery %d so a rollback target exists",
			sc.Name, corruptIter, every)
	}
	// The reference runs with integrity checking ON, so it doubles as the
	// no-false-positives check.
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks, Integrity: true}, corruptIter)
	if err != nil {
		return nil, err
	}

	// The scenario's computed relation (Rels lists inputs first).
	rel := sc.Rels[len(sc.Rels)-1]
	victim := 0
	plan := &paralagg.FaultPlan{
		Seed:          1,
		StateCorrupts: []paralagg.StateCorrupt{{Rank: victim, Iter: corruptIter, Rel: rel}},
	}

	// Unsupervised corrupted run: must abort, on every rank, within the
	// corrupted iteration.
	_, err = exec(schedule, sc.Prog(), paralagg.Config{
		Ranks: ranks, Subs: sc.Subs, Integrity: true, Faults: plan, Watchdog: 5 * time.Second,
	}, sc.Load, nil)
	if err == nil {
		return nil, fmt.Errorf("chaos %s: injected state corruption on rank %d went undetected", sc.Name, victim)
	}
	failures := paralagg.RankFailures(err)
	if len(failures) != ranks {
		return nil, fmt.Errorf("chaos %s: divergence surfaced on %d of %d ranks: %w",
			sc.Name, len(failures), ranks, err)
	}
	var div *paralagg.ErrStateDiverged
	for _, f := range failures {
		var ok bool
		div, ok = paralagg.AsStateDivergence(f)
		if !ok {
			return nil, fmt.Errorf("chaos %s: rank %d failure carries no ErrStateDiverged: %w", sc.Name, f.Rank, f)
		}
		// The flip lands at corruptIter when the target shard is non-empty,
		// later otherwise (the fault retries until state exists); detection
		// is within the iteration it lands.
		if div.Iter < corruptIter {
			return nil, fmt.Errorf("chaos %s: rank %d detected divergence at iter %d, before the corruption at %d",
				sc.Name, f.Rank, div.Iter, corruptIter)
		}
	}

	// Supervised corrupted run: the rollback policy must recover to the
	// fault-free answer from the last verified checkpoint.
	scfg := paralagg.SuperviseConfig{
		Config: paralagg.Config{
			Ranks:           ranks,
			Subs:            sc.Subs,
			Integrity:       true,
			CheckpointEvery: every,
			Checkpoints:     paralagg.NewMemoryCheckpointSink(),
			Faults:          plan,
			Watchdog:        5 * time.Second,
		},
		RecoveryBackoff: time.Millisecond,
	}
	_, srep, err := supervise(schedule, sc.Prog(), scfg, sc.Load, collect(sc.Rels, &o.Recovered))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: supervised recovery from divergence failed: %w", sc.Name, err)
	}
	if srep.DivergenceRollbacks == 0 {
		return nil, fmt.Errorf("chaos %s: supervisor recovered but classified no divergence rollback", sc.Name)
	}
	if srep.RestartsFromScratch != 0 {
		return nil, fmt.Errorf("chaos %s: recovery restarted from scratch %d times — the pre-corruption checkpoint should have been valid",
			sc.Name, srep.RestartsFromScratch)
	}
	return o.verdict(sc.Name, "flip detected at iter %d (%s check), %d rollback(s), bit-identical",
		div.Iter, div.Check, srep.DivergenceRollbacks)
}

// CheckpointCorruptionDifferential proves checkpoint self-healing on sc:
// with checkpointing every `every` iterations, rank (ranks-1)'s SECOND
// checkpoint generation is bit-flipped on the sink right after it is
// written (simulated media rot), and the same rank crashes at crashIter.
// Recovery must quarantine the rotten generation, fall back exactly one
// generation (to the save at iteration `every`), and still reproduce the
// fault-free relations bit for bit. crashIter must satisfy
// 2*every < crashIter <= 3*every so the rotten generation is the newest
// one at crash time.
func CheckpointCorruptionDifferential(sc Scenario, schedule string, ranks, every, crashIter int) (*Outcome, error) {
	corruptAt := 2 * every
	if crashIter <= corruptAt || crashIter > 3*every {
		return nil, fmt.Errorf("chaos %s: crashIter %d must be in (%d, %d] so the corrupted generation is newest at crash time",
			sc.Name, crashIter, corruptAt, 3*every)
	}
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks, Integrity: true}, crashIter)
	if err != nil {
		return nil, err
	}

	victim := ranks - 1
	sink := paralagg.NewMemoryCheckpointSink()
	_, err = exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		Integrity:       true,
		CheckpointEvery: every,
		Checkpoints:     sink,
		Watchdog:        5 * time.Second,
		Faults: &paralagg.FaultPlan{
			Seed:         1,
			CkptCorrupts: []paralagg.CkptCorrupt{{Rank: victim, Iter: corruptAt}},
			Crashes:      []paralagg.Crash{{Rank: victim, Iter: crashIter, Op: "alltoallv"}},
		},
	}, sc.Load, nil)
	if err == nil {
		return nil, fmt.Errorf("chaos %s: injected crash of rank %d produced no error", sc.Name, victim)
	}
	if _, ok := paralagg.AsRankFailure(err); !ok {
		return nil, fmt.Errorf("chaos %s: crash error carries no ErrRankFailed: %w", sc.Name, err)
	}

	// The recovery scan must reject the rotten newest generation and agree
	// on the one before it.
	_, quarantined0 := paralagg.CheckpointIntegrityStats()
	pos, ok, err := sink.LatestValid()
	if err != nil {
		return nil, fmt.Errorf("chaos %s: LatestValid failed: %w", sc.Name, err)
	}
	if !ok {
		return nil, fmt.Errorf("chaos %s: no valid checkpoint set survived — only one generation was rotten", sc.Name)
	}
	if pos.Iter != every {
		return nil, fmt.Errorf("chaos %s: recovery agreed on iteration %d, want fallback to %d (one generation back)",
			sc.Name, pos.Iter, every)
	}
	_, quarantined1 := paralagg.CheckpointIntegrityStats()
	quarantined := quarantined1 - quarantined0
	if quarantined < 1 {
		return nil, fmt.Errorf("chaos %s: rotten generation was skipped but never quarantined", sc.Name)
	}

	if _, err := exec(schedule, sc.Prog(), paralagg.Config{
		Ranks:           ranks,
		Subs:            sc.Subs,
		Integrity:       true,
		CheckpointEvery: every,
		Checkpoints:     sink,
		Resume:          true,
		Watchdog:        5 * time.Second,
	}, sc.Load, collect(sc.Rels, &o.Recovered)); err != nil {
		return nil, fmt.Errorf("chaos %s: resume past the rotten generation failed: %w", sc.Name, err)
	}
	return o.verdict(sc.Name, "rotten generation quarantined (%d), fell back to iter %d, bit-identical",
		quarantined, pos.Iter)
}
