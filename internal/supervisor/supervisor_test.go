package supervisor

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"paralagg/internal/mpi"
)

func rankFail(rank int) error {
	return &mpi.ErrRankFailed{Rank: rank, Op: "alltoallv", Iter: 3, Cause: mpi.ErrInjectedCrash}
}

// noSleep keeps tests instant while recording the backoffs chosen.
func noSleep(delays *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *delays = append(*delays, d) }
}

func TestRunSucceedsFirstTry(t *testing.T) {
	rep, err := Run(4, Config{}, func(attempt, ranks int, resume bool) error {
		if attempt != 0 || ranks != 4 || resume {
			t.Errorf("unexpected call: attempt=%d ranks=%d resume=%v", attempt, ranks, resume)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryAttempts != 0 || rep.RanksLost != 0 || rep.FinalRanks != 4 || len(rep.Attempts) != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestRunRestartsSameSizeAndResumes(t *testing.T) {
	var delays []time.Duration
	calls := 0
	rep, err := Run(4, Config{Sleep: noSleep(&delays)}, func(attempt, ranks int, resume bool) error {
		calls++
		if attempt == 0 {
			if resume {
				t.Error("first attempt must not resume")
			}
			return fmt.Errorf("world died: %w", rankFail(3))
		}
		if ranks != 4 || !resume {
			t.Errorf("restart: ranks=%d resume=%v, want 4/true", ranks, resume)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || rep.RecoveryAttempts != 1 || rep.RanksLost != 1 {
		t.Errorf("calls=%d report=%+v", calls, rep)
	}
	if got := rep.Attempts[0].Lost; len(got) != 1 || got[0] != 3 {
		t.Errorf("lost ranks: %v", got)
	}
	if len(delays) != 1 || delays[0] <= 0 {
		t.Errorf("backoff delays: %v", delays)
	}
}

func TestRunDegradesToSurvivors(t *testing.T) {
	var sizes []int
	var delays []time.Duration
	rep, err := Run(4, Config{Degrade: true, Sleep: noSleep(&delays)}, func(attempt, ranks int, resume bool) error {
		sizes = append(sizes, ranks)
		if attempt == 0 {
			return rankFail(3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[1] != 3 {
		t.Errorf("world sizes: %v, want degrade 4 -> 3", sizes)
	}
	if rep.FinalRanks != 3 {
		t.Errorf("FinalRanks = %d", rep.FinalRanks)
	}
}

func TestRunNextRanksOverridesDegrade(t *testing.T) {
	var sizes []int
	var delays []time.Duration
	cfg := Config{
		Degrade: true, // must be ignored
		Sleep:   noSleep(&delays),
		NextRanks: func(restart, prev int, lost []int) int {
			if restart != 1 || prev != 4 || len(lost) != 1 {
				t.Errorf("NextRanks(%d, %d, %v)", restart, prev, lost)
			}
			return prev / 2
		},
	}
	_, err := Run(4, cfg, func(attempt, ranks int, resume bool) error {
		sizes = append(sizes, ranks)
		if attempt == 0 {
			return rankFail(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[1] != 2 {
		t.Errorf("world sizes: %v, want pinned 4 -> 2", sizes)
	}
}

// Degradation never drops below one rank: an incident that takes every
// rank of the world still restarts it on one.
func TestRunMinRanksFloorsDegradation(t *testing.T) {
	var sizes []int
	var delays []time.Duration
	_, err := Run(2, Config{Degrade: true, MaxRestarts: 2, Sleep: noSleep(&delays)},
		func(attempt, ranks int, resume bool) error {
			sizes = append(sizes, ranks)
			if attempt == 0 {
				return errors.Join(rankFail(0), rankFail(1))
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 2 || sizes[1] != 1 {
		t.Errorf("world sizes: %v, want floor at 1", sizes)
	}
}

func TestRunGivesUpAfterMaxRestarts(t *testing.T) {
	var delays []time.Duration
	calls := 0
	rep, err := Run(4, Config{MaxRestarts: 2, Sleep: noSleep(&delays)}, func(attempt, ranks int, resume bool) error {
		calls++
		return rankFail(attempt % 4)
	})
	if !errors.Is(err, ErrGaveUp) {
		t.Fatalf("err = %v, want ErrGaveUp", err)
	}
	if calls != 3 { // initial + 2 restarts
		t.Errorf("calls = %d, want 3", calls)
	}
	if rep.RecoveryAttempts != 2 || rep.RanksLost != 3 {
		t.Errorf("report: %+v", rep)
	}
	// The terminal error must still expose the structured failure.
	if _, ok := mpi.AsRankFailure(err); !ok {
		t.Error("terminal error lost the rank-failure detail")
	}
}

func TestRunNonFaultErrorIsTerminal(t *testing.T) {
	boom := errors.New("assertion failed")
	calls := 0
	rep, err := Run(4, Config{}, func(attempt, ranks int, resume bool) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 || rep.RecoveryAttempts != 0 {
		t.Errorf("non-fault error retried: calls=%d report=%+v", calls, rep)
	}
}

func TestRunBackoffGrowsAndIsCapped(t *testing.T) {
	schedule := func() []time.Duration {
		var delays []time.Duration
		_, err := Run(4, Config{
			MaxRestarts: 4, Backoff: 500 * time.Millisecond, Sleep: noSleep(&delays),
		}, func(attempt, ranks int, resume bool) error {
			if attempt < 4 {
				return rankFail(0)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return delays
	}
	delays := schedule()
	if len(delays) != 4 {
		t.Fatalf("delays: %v", delays)
	}
	// Jitter keeps each delay within [backoff/2, backoff*1.5). The backoff
	// doubles 500ms → 1s → 2s and then stays at the 2s cap, so the last two
	// delays share one band and none reaches 3s.
	bands := [4]time.Duration{500 * time.Millisecond, time.Second, 2 * time.Second, 2 * time.Second}
	for i, d := range delays {
		if b := bands[i]; d < b/2 || d >= b+b/2 {
			t.Errorf("delay[%d] = %v outside the jitter band of %v", i, d, b)
		}
	}
	// Deterministic: every run sleeps the same delays.
	again := schedule()
	for i := range delays {
		if delays[i] != again[i] {
			t.Errorf("jitter not deterministic: %v vs %v", delays, again)
		}
	}
}

func TestRankFailuresCollectsAndDedupes(t *testing.T) {
	a := rankFail(2)
	b := &mpi.ErrRankFailed{Rank: 0, Op: "barrier", Iter: 5, Cause: mpi.ErrWatchdogTimeout}
	dup := rankFail(2)
	joined := errors.Join(fmt.Errorf("wrap: %w", a), b, dup)
	got := mpi.RankFailures(joined)
	if len(got) != 2 || got[0].Rank != 0 || got[1].Rank != 2 {
		t.Errorf("RankFailures = %v", got)
	}
	if mpi.RankFailures(errors.New("plain")) != nil {
		t.Error("plain error yielded failures")
	}
	if mpi.RankFailures(nil) != nil {
		t.Error("nil error yielded failures")
	}
}
