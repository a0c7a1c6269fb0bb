package paralagg

import (
	"fmt"
	"time"

	"paralagg/internal/mpi"
	"paralagg/internal/obs"
	"paralagg/internal/supervisor"
)

// SuperviseConfig extends Config with the elastic-recovery policy. The
// embedded Config must carry a CheckpointSink (and normally a positive
// CheckpointEvery — without periodic saves a crash can only restart from
// scratch); its Ranks and Resume fields describe the FIRST attempt, later
// attempts are managed by the supervisor.
type SuperviseConfig struct {
	Config

	// MaxRestarts bounds the recoveries before Supervise gives up
	// (default 3; negative allows none).
	MaxRestarts int
	// Degrade restarts with the surviving rank count (at least 1) instead of
	// the same world size; the checkpoint is remapped through the smaller
	// layout.
	Degrade bool
	// RecoveryBackoff is the first restart's delay (default 10ms), doubling
	// per restart up to 2s with deterministic ±50% jitter.
	RecoveryBackoff time.Duration
	// Logf receives one line per supervisor lifecycle event (nil = silent).
	Logf func(format string, args ...any)

	// FaultsFor overrides the fault plan per attempt (0 = initial run). By
	// default Config.Faults applies to attempt 0 only: fault-plan counters
	// reset with each fresh world, so re-applying the plan would re-kill the
	// same rank forever. Chaos tests use FaultsFor to schedule repeated
	// crashes across recoveries.
	FaultsFor func(attempt int) *FaultPlan
	// RanksFor pins each restart's world size (overrides Degrade); restart
	// is the restart ordinal (1 = first recovery), prev the failed world's
	// size, lost the ranks that died.
	RanksFor func(restart, prev int, lost []int) int
}

// SuperviseReport describes how a supervised run unfolded.
type SuperviseReport struct {
	// RecoveryAttempts counts the restarts performed.
	RecoveryAttempts int
	// RanksLost lists every rank death across all incidents, in order.
	RanksLost []int
	// FinalRanks is the world size of the last attempt.
	FinalRanks int
	// AttemptRanks lists each attempt's world size, in order.
	AttemptRanks []int
	// DivergenceRollbacks counts incidents caused by detected state
	// divergence (silent corruption caught by the integrity fingerprints);
	// each rolled the computation back to the last verified checkpoint.
	DivergenceRollbacks int
	// RestartsFromScratch counts recovery attempts that found no usable
	// checkpoint — none ever written, or every retained generation failed
	// validation — and restarted from the initial state instead of resuming.
	RestartsFromScratch int
}

// Supervise runs prog under elastic supervision: Exec is retried across rank
// failures, each retry tearing down the poisoned world, rebuilding a fresh
// one (same size, or degraded/pinned per config), restoring the latest
// agreed checkpoint — the restore is world-size independent — and
// re-entering the fixpoint. Non-fault errors and exhausted restart budgets
// are terminal. The returned Result is the successful attempt's; the report
// is never nil.
func Supervise(prog *Program, cfg SuperviseConfig, load func(*Rank) error, inspect func(*Rank) error) (*Result, *SuperviseReport, error) {
	rep := &SuperviseReport{}
	if cfg.Checkpoints == nil {
		return nil, rep, fmt.Errorf("paralagg: Supervise needs Config.Checkpoints — without a sink there is nothing to recover from")
	}

	var final *Result
	// Lifecycle events: every supervisor decision (restart, rollback,
	// degrade, scratch, gave-up) streams to the Observer as it happens, so
	// recovery is visible live instead of only in the final report.
	emit := func(action string, restart, nextRanks int, lost []int) {
		if cfg.Observer == nil {
			return
		}
		e := obs.Get()
		e.Kind = obs.KindSupervisor
		e.Name = action
		e.Count = uint64(restart)
		e.Rank = -1
		if len(lost) == 1 {
			e.Rank = lost[0]
		}
		e.Ranks = nextRanks
		e.End = time.Now().UnixNano()
		obs.Emit(cfg.Observer, e)
	}
	scfg := supervisor.Config{
		MaxRestarts: cfg.MaxRestarts,
		Degrade:     cfg.Degrade,
		Backoff:     cfg.RecoveryBackoff,
		NextRanks:   cfg.RanksFor,
		Notify:      emit,
		Logf:        cfg.Logf,
	}
	srep, err := supervisor.Run(cfg.ranks(), scfg, func(attempt, ranks int, resume bool) error {
		c := cfg.Config
		c.Ranks = ranks
		// Re-register attempt-aware observers (trace recorders open a new
		// process group, the live server advances its attempt gauge and
		// resets per-run counters) so each restart is observed cleanly.
		if aa, ok := c.Observer.(obs.AttemptAware); ok {
			aa.OnAttempt(attempt)
		}
		switch {
		case cfg.FaultsFor != nil:
			c.Faults = cfg.FaultsFor(attempt)
		case attempt > 0:
			c.Faults = nil
		}
		if resume {
			// Resume only when a complete, validating checkpoint set exists:
			// a crash before the first save — or corruption of every retained
			// generation — restarts from scratch. A sink error is surfaced,
			// not silently treated as "no checkpoint", so an operator can
			// tell media failure from a genuinely empty sink.
			pos, ok, cerr := c.Checkpoints.LatestValid()
			c.Resume = ok
			switch {
			case cerr != nil:
				rep.RestartsFromScratch++
				emit("scratch", attempt, ranks, nil)
				if cfg.Logf != nil {
					cfg.Logf("supervise: attempt=%d checkpoint scan failed (%v) — restarting from scratch", attempt, cerr)
				}
			case !ok:
				rep.RestartsFromScratch++
				emit("scratch", attempt, ranks, nil)
				if cfg.Logf != nil {
					cfg.Logf("supervise: attempt=%d no valid checkpoint generation — restarting from scratch", attempt)
				}
			default:
				if cfg.Logf != nil {
					cfg.Logf("supervise: attempt=%d resuming from checkpoint (stratum=%d iter=%d ranks=%d)", attempt, pos.Stratum, pos.Iter, pos.Ranks)
				}
			}
		}
		res, err := Exec(prog, c, load, inspect)
		if err != nil {
			return err
		}
		final = res
		return nil
	})

	rep.RecoveryAttempts = srep.RecoveryAttempts
	rep.FinalRanks = srep.FinalRanks
	rep.DivergenceRollbacks = srep.DivergenceRollbacks
	for _, at := range srep.Attempts {
		rep.AttemptRanks = append(rep.AttemptRanks, at.Ranks)
		rep.RanksLost = append(rep.RanksLost, at.Lost...)
	}
	return final, rep, err
}

// RankFailures collects every distinct rank failure in an Exec error, sorted
// by rank — a multi-rank incident joins several ErrRankFailed values and
// AsRankFailure only surfaces the first.
func RankFailures(err error) []*ErrRankFailed { return mpi.RankFailures(err) }
