// Package supervisor implements bounded-restart supervision for the
// simulated MPI runtime: run a world, and when it dies of a rank failure,
// tear it down, pick the next world size (same size, or degraded to the
// survivors), back off with jitter, and re-enter the body with resume set so
// it can restore the latest agreed checkpoint. Non-fault errors (a bad
// program, a failed assertion) are terminal immediately — restarting cannot
// fix them.
//
// The package is deliberately runtime-agnostic: the body is any function
// that runs one world attempt. The paralagg surface (paralagg.Supervise)
// binds it to Exec.
package supervisor

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"paralagg/internal/mpi"
)

// Config tunes a supervised run.
type Config struct {
	// MaxRestarts bounds how many times a failed world is rebuilt before the
	// supervisor gives up (default 3; negative allows none). The first run
	// is not a restart.
	MaxRestarts int
	// Degrade restarts with the surviving rank count (previous size minus
	// the ranks lost in the incident, and never below 1) instead of the same
	// size. The restore remaps the checkpoint through the smaller layout.
	Degrade bool
	// Backoff is the first restart's delay (default 10ms); each further
	// restart doubles it, capped at 2s, with ±50% jitter from a
	// fixed seed (deterministic, so chaos differentials replay).
	Backoff time.Duration
	// NextRanks, when set, overrides the restart world size entirely: it
	// receives the restart ordinal (1 = first restart), the failed world's
	// size, and the lost ranks, and returns the new size. Degrade is ignored
	// when set. Chaos tests use it to pin N/2 restarts deterministically.
	NextRanks func(restart, prev int, lost []int) int
	// Notify, when set, receives one call per lifecycle decision: action is
	// "restart" (same-size rebuild), "rollback" (divergence-triggered
	// rebuild), "degrade" (rebuild at a smaller world size), or "gave-up"
	// (budget exhausted, terminal); restart is the restart ordinal (1 = the
	// first recovery), nextRanks the size the next attempt runs at, lost the
	// ranks the incident killed. The paralagg surface binds it to the
	// Observer stream and /metrics gauges.
	Notify func(action string, restart, nextRanks int, lost []int)
	// Logf receives one structured line per lifecycle event (nil = silent).
	Logf func(format string, args ...any)
	// Sleep replaces time.Sleep in tests (nil = real sleep).
	Sleep func(time.Duration)
}

func (c Config) maxRestarts() int {
	if c.MaxRestarts < 0 {
		return 0
	}
	if c.MaxRestarts == 0 {
		return 3
	}
	return c.MaxRestarts
}

func (c Config) backoff() time.Duration {
	if c.Backoff <= 0 {
		return 10 * time.Millisecond
	}
	return c.Backoff
}

// backoffMax caps the restart delay before jitter.
const backoffMax = 2 * time.Second

func (c Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Attempt records one world's lifetime under supervision.
type Attempt struct {
	Ranks   int           // world size this attempt ran with
	Err     error         // how it ended (nil = success)
	Lost    []int         // ranks the incident killed (empty on success)
	Backoff time.Duration // delay slept before the NEXT attempt
}

// Report summarizes a supervised run for metrics and logs.
type Report struct {
	// Attempts lists every world in order; the last one either succeeded or
	// carries the terminal error.
	Attempts []Attempt
	// RecoveryAttempts counts the restarts performed (len(Attempts)-1).
	RecoveryAttempts int
	// RanksLost counts the total rank deaths across all incidents.
	RanksLost int
	// FinalRanks is the world size of the last attempt.
	FinalRanks int
	// DivergenceRollbacks counts incidents whose cause was detected state
	// divergence (silent corruption caught by the integrity fingerprints)
	// rather than a crash or timeout; each triggered a rollback to the last
	// verified checkpoint.
	DivergenceRollbacks int
}

// ErrGaveUp wraps the last failure when MaxRestarts is exhausted.
var ErrGaveUp = errors.New("supervisor: restart budget exhausted")

// Run executes body under supervision. body runs one complete world attempt:
// attempt is the ordinal (0 = initial run), ranks the world size to build,
// and resume whether a previous attempt's checkpoint should be restored
// (always true after the first attempt; the body decides whether a
// checkpoint actually exists). Run returns the report alongside the terminal
// error, if any; the report is never nil.
func Run(ranks int, cfg Config, body func(attempt, ranks int, resume bool) error) (*Report, error) {
	rep := &Report{}
	rng := rand.New(rand.NewSource(0))
	sleep := cfg.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := cfg.backoff()
	for attempt := 0; ; attempt++ {
		cfg.logf("supervisor: attempt=%d ranks=%d resume=%v", attempt, ranks, attempt > 0)
		err := body(attempt, ranks, attempt > 0)
		at := Attempt{Ranks: ranks, Err: err}
		rep.FinalRanks = ranks
		if err == nil {
			rep.Attempts = append(rep.Attempts, at)
			cfg.logf("supervisor: attempt=%d succeeded after %d recoveries", attempt, rep.RecoveryAttempts)
			return rep, nil
		}
		failures := mpi.RankFailures(err)
		if len(failures) == 0 {
			// Not a rank failure: restarting replays the same deterministic
			// error. Terminal.
			rep.Attempts = append(rep.Attempts, at)
			cfg.logf("supervisor: attempt=%d terminal (non-fault error): %v", attempt, err)
			return rep, err
		}
		for _, f := range failures {
			at.Lost = append(at.Lost, f.Rank)
		}
		rep.RanksLost += len(at.Lost)
		if div, ok := mpi.AsStateDivergence(err); ok {
			// Silent corruption, not a dead rank: the world was torn down
			// because replicas disagreed. Roll back to the last verified
			// checkpoint and replay.
			rep.DivergenceRollbacks++
			cfg.logf("supervisor: attempt=%d state diverged (rel=%s iter=%d rank=%d) — rolling back to last verified checkpoint",
				attempt, div.Rel, div.Iter, div.Rank)
		}
		cfg.logf("supervisor: attempt=%d lost ranks %v: %v", attempt, at.Lost, err)
		if attempt >= cfg.maxRestarts() {
			rep.Attempts = append(rep.Attempts, at)
			if cfg.Notify != nil {
				cfg.Notify("gave-up", attempt, ranks, at.Lost)
			}
			return rep, fmt.Errorf("%w after %d restarts: %w", ErrGaveUp, attempt, err)
		}

		next := ranks
		switch {
		case cfg.NextRanks != nil:
			next = cfg.NextRanks(attempt+1, ranks, at.Lost)
		case cfg.Degrade:
			next = ranks - len(at.Lost)
		}
		if next < 1 {
			next = 1
		}
		if cfg.Notify != nil {
			action := "restart"
			if _, diverged := mpi.AsStateDivergence(err); diverged {
				action = "rollback"
			} else if next < ranks {
				action = "degrade"
			}
			cfg.Notify(action, attempt+1, next, at.Lost)
		}

		// Exponential backoff with ±50% deterministic jitter.
		delay := backoff/2 + time.Duration(rng.Int63n(int64(backoff)))
		at.Backoff = delay
		rep.Attempts = append(rep.Attempts, at)
		rep.RecoveryAttempts++
		cfg.logf("supervisor: restart=%d next_ranks=%d backoff=%v", attempt+1, next, delay)
		sleep(delay)
		if backoff < backoffMax {
			backoff *= 2
			if backoff > backoffMax {
				backoff = backoffMax
			}
		}
		ranks = next
	}
}
