package supervisor

import (
	"errors"
	"fmt"
)

// Gang supervision: hot rank replacement. Where Run tears down a whole
// world per incident, RunGang keeps the survivors alive — one member per
// rank, and when a member dies it alone is respawned at the next
// membership epoch while the rest of the gang parks at the transport's
// recovery barrier. The member abstraction covers both real processes (the
// launcher's per-rank children) and in-process goroutine gangs (the chaos
// harness), so the replacement policy is tested without forking.

// Member is one rank's running body: Wait blocks until it exits. Members
// that can be torn down early (a child process) additionally implement
// Killer so a failed gang does not linger for the full replace timeout.
type Member interface {
	Wait() error
}

// Killer is an optional Member extension for forcible teardown.
type Killer interface {
	Kill()
}

// GangConfig tunes RunGang.
type GangConfig struct {
	// Ranks is the gang size.
	Ranks int
	// Spawn launches rank's member for the given membership epoch (0 = the
	// initial gang, >0 = a hot replacement). Required.
	Spawn func(rank, epoch int) (Member, error)
	// Notify, when set, receives one call per lifecycle decision: action is
	// "replace" (member died, replacement spawning) or "replace-failed"
	// (spawn error or budget exhausted — the gang is being torn down).
	Notify func(action string, rank, epoch int, cause error)
	// Logf receives one line per lifecycle event (nil = silent).
	Logf func(format string, args ...any)
}

// maxReplacements bounds hot replacements across a gang's lifetime. A
// death beyond the budget fails the gang so the caller's full-restart path
// takes over.
const maxReplacements = 3

func (c GangConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

func (c GangConfig) notify(action string, rank, epoch int, cause error) {
	if c.Notify != nil {
		c.Notify(action, rank, epoch, cause)
	}
}

// GangReport summarizes a gang's lifetime.
type GangReport struct {
	// Replacements counts hot replacements performed.
	Replacements int
	// Replaced lists the ranks replaced, in incident order.
	Replaced []int
}

// ErrReplaceFailed marks a gang failure where hot replacement was
// attempted but could not complete (spawn error, or budget exhausted).
// Callers match it to fall back to the whole-world restart path.
var ErrReplaceFailed = errors.New("supervisor: hot replacement failed")

// memberExit is one member's termination.
type memberExit struct {
	rank int
	err  error
}

// RunGang runs one member per rank and supervises them with hot
// replacement: a member that exits with an error is respawned at the next
// membership epoch (its peers keep running, parked at the transport's
// recovery barrier) up to maxReplacements times. The gang succeeds when
// every rank's current member has exited cleanly. A spawn failure or an
// exhausted budget turns terminal: remaining members are killed (when they
// support it) and drained, and the error wraps ErrReplaceFailed so the
// caller can fall back to a full restart. The report is never nil.
func RunGang(cfg GangConfig) (*GangReport, error) {
	rep := &GangReport{}
	if cfg.Ranks < 1 {
		return rep, fmt.Errorf("supervisor: gang size %d < 1", cfg.Ranks)
	}
	if cfg.Spawn == nil {
		return rep, errors.New("supervisor: GangConfig.Spawn is required")
	}

	exits := make(chan memberExit, cfg.Ranks)
	members := make([]Member, cfg.Ranks)
	epochs := make([]int, cfg.Ranks)
	watch := func(rank int, m Member) {
		go func() { exits <- memberExit{rank: rank, err: m.Wait()} }()
	}
	for r := 0; r < cfg.Ranks; r++ {
		m, err := cfg.Spawn(r, 0)
		if err != nil {
			// The gang never fully formed; kill what exists and drain.
			cfg.notify("replace-failed", r, 0, err)
			return rep, drainGang(cfg, members, exits, r,
				fmt.Errorf("%w: spawning rank %d: %w", ErrReplaceFailed, r, err))
		}
		members[r] = m
		watch(r, m)
	}

	running := cfg.Ranks
	for running > 0 {
		ex := <-exits
		running--
		if ex.err == nil {
			cfg.logf("gang: rank %d (epoch %d) exited cleanly", ex.rank, epochs[ex.rank])
			continue
		}
		if rep.Replacements >= maxReplacements {
			cfg.notify("replace-failed", ex.rank, epochs[ex.rank], ex.err)
			cfg.logf("gang: rank %d died with replacement budget exhausted (%d used): %v",
				ex.rank, rep.Replacements, ex.err)
			return rep, drainGang(cfg, members, exits, running,
				fmt.Errorf("%w: rank %d died after %d replacements: %w",
					ErrReplaceFailed, ex.rank, rep.Replacements, ex.err))
		}
		epoch := epochs[ex.rank] + 1
		cfg.notify("replace", ex.rank, epoch, ex.err)
		cfg.logf("gang: rank %d died (%v) — spawning replacement at epoch %d", ex.rank, ex.err, epoch)
		m, err := cfg.Spawn(ex.rank, epoch)
		if err != nil {
			cfg.notify("replace-failed", ex.rank, epoch, err)
			cfg.logf("gang: replacement spawn for rank %d failed: %v", ex.rank, err)
			return rep, drainGang(cfg, members, exits, running,
				fmt.Errorf("%w: spawning rank %d replacement: %w", ErrReplaceFailed, ex.rank, err))
		}
		epochs[ex.rank] = epoch
		members[ex.rank] = m
		rep.Replacements++
		rep.Replaced = append(rep.Replaced, ex.rank)
		running++
		watch(ex.rank, m)
	}
	return rep, nil
}

// drainGang tears the gang down after a terminal failure: kill every
// spawned member that supports it, wait for the outstanding exits, and
// join their errors behind the terminal one. Members without Kill exit on
// their own once the transport's replace timeout declares the dead rank
// failed, so the drain is bounded either way.
func drainGang(cfg GangConfig, members []Member, exits chan memberExit, running int, terminal error) error {
	for _, m := range members {
		if k, ok := m.(Killer); ok {
			k.Kill()
		}
	}
	for i := 0; i < running; i++ {
		ex := <-exits
		if ex.err != nil {
			cfg.logf("gang: rank %d exited during teardown: %v", ex.rank, ex.err)
		}
	}
	return terminal
}
