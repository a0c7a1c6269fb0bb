package main

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"paralagg/internal/mpi"
	"paralagg/internal/supervisor"
)

// A gang attempt's child exit codes decide what the supervisor does: exit 3
// (and a signal kill, reported as -1) is a rank failure it restarts from,
// any other non-zero exit is terminal, and the launcher exits with the
// worst child code.
func TestGangErrMapsExitCodes(t *testing.T) {
	for _, tc := range []struct {
		codes    []int
		lost     []int // ranks reported as failed; nil when none
		terminal bool  // a childExit, which the supervisor does not retry
		exit     int   // the launcher's exit code for this outcome
	}{
		{codes: []int{0, 0, 0}, exit: 0},
		{codes: []int{3, 0, 3}, lost: []int{0, 2}, exit: 3},
		{codes: []int{-1, 3, 3}, lost: []int{0, 1, 2}, exit: 3},
		{codes: []int{0, 1, 0}, terminal: true, exit: 1},
		{codes: []int{3, 1, 3}, terminal: true, exit: 3},
		{codes: []int{2, 1, -1}, terminal: true, exit: 2},
	} {
		name := fmt.Sprint(tc.codes)
		err := gangErr(tc.codes)
		var ce childExit
		if got := errors.As(err, &ce); got != tc.terminal {
			t.Errorf("%s: terminal = %v, want %v (err %v)", name, got, tc.terminal, err)
		}
		var lost []int
		for _, f := range mpi.RankFailures(err) {
			lost = append(lost, f.Rank)
		}
		if fmt.Sprint(lost) != fmt.Sprint(tc.lost) {
			t.Errorf("%s: rank failures %v, want %v", name, lost, tc.lost)
		}
		if got := launcherExit(err); got != tc.exit {
			t.Errorf("%s: launcher exit %d, want %d", name, got, tc.exit)
		}
	}
}

// Through supervisor.Run: rank failures are restarted with resume set until
// the budget runs out (exit 3), a terminal exit stops at once with its
// code, and a budget of -1 runs exactly one attempt.
func TestGangErrUnderSupervisor(t *testing.T) {
	run := func(restarts int, attempts [][]int) (calls int, exit int) {
		_, err := supervisor.Run(3, supervisor.Config{MaxRestarts: restarts, Sleep: func(time.Duration) {}},
			func(attempt, ranks int, resume bool) error {
				if resume != (attempt > 0) {
					t.Errorf("attempt %d: resume = %v", attempt, resume)
				}
				calls++
				return gangErr(attempts[min(attempt, len(attempts)-1)])
			})
		return calls, launcherExit(err)
	}
	dead := []int{3, 3, -1}
	if calls, exit := run(2, [][]int{dead, {0, 0, 0}}); calls != 2 || exit != 0 {
		t.Errorf("recovering gang: %d attempts, exit %d; want 2, 0", calls, exit)
	}
	if calls, exit := run(2, [][]int{dead}); calls != 3 || exit != 3 {
		t.Errorf("gang dying every attempt: %d attempts, exit %d; want 3, 3", calls, exit)
	}
	if calls, exit := run(2, [][]int{{0, 4, 3}}); calls != 1 || exit != 4 {
		t.Errorf("terminal exit: %d attempts, exit %d; want 1, 4", calls, exit)
	}
	if calls, exit := run(-1, [][]int{dead, {0, 0, 0}}); calls != 1 || exit != 3 {
		t.Errorf("unsupervised gang: %d attempts, exit %d; want 1, 3", calls, exit)
	}
}
