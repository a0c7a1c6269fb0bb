package paralagg

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// tcProgram builds transitive closure over a chain of n nodes: n·(n-1)/2
// paths, roughly n fixpoint iterations — plenty of room to checkpoint,
// crash, and recover mid-run.
func tcProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	if err := p.DeclareSet("edge", 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareSet("path", 2, 1); err != nil {
		t.Fatal(err)
	}
	p.Add(
		R(A("path", Var("x"), Var("y")),
			A("edge", Var("x"), Var("y"))),
		R(A("path", Var("x"), Var("z")),
			A("path", Var("x"), Var("y")),
			A("edge", Var("y"), Var("z"))),
	)
	return p
}

func loadChain(n int) func(*Rank) error {
	return func(rk *Rank) error {
		return rk.LoadShare("edge", n-1, func(i int, emit func(Tuple)) {
			emit(Tuple{uint64(i), uint64(i + 1)})
		})
	}
}

const chainNodes = 30
const chainPaths = chainNodes * (chainNodes - 1) / 2 // 435

func TestSuperviseRecoversSameSize(t *testing.T) {
	var logs []string
	res, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{
			Ranks:           4,
			CheckpointEvery: 3,
			Checkpoints:     NewMemoryCheckpointSink(),
			Faults:          &FaultPlan{Crashes: []Crash{{Rank: 3, Iter: 5, Op: "alltoallv"}}},
		},
		RecoveryBackoff: time.Millisecond,
		Logf:            func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	}, loadChain(chainNodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["path"] != chainPaths {
		t.Errorf("path count = %d, want %d", res.Counts["path"], chainPaths)
	}
	if rep.RecoveryAttempts != 1 || rep.FinalRanks != 4 {
		t.Errorf("report: %+v", rep)
	}
	if len(rep.RanksLost) != 1 || rep.RanksLost[0] != 3 {
		t.Errorf("RanksLost = %v, want [3]", rep.RanksLost)
	}
	if len(logs) == 0 {
		t.Error("no supervisor log lines")
	}
	// The recovered world restored at the same size, so the remap path must
	// NOT have run: recovery time is accounted under the recovery phase.
	if res.PhaseSeconds["remap"] != 0 {
		t.Errorf("same-size recovery used remap: %v", res.PhaseSeconds["remap"])
	}
	if res.PhaseSeconds["recovery"] <= 0 {
		t.Errorf("recovery phase not metered: %v", res.PhaseSeconds["recovery"])
	}
}

func TestSuperviseDegradesAndRemaps(t *testing.T) {
	res, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{
			Ranks:           4,
			CheckpointEvery: 3,
			Checkpoints:     NewMemoryCheckpointSink(),
			Faults:          &FaultPlan{Crashes: []Crash{{Rank: 3, Iter: 5, Op: "alltoallv"}}},
		},
		Degrade:         true,
		RecoveryBackoff: time.Millisecond,
	}, loadChain(chainNodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["path"] != chainPaths {
		t.Errorf("path count = %d, want %d", res.Counts["path"], chainPaths)
	}
	if rep.FinalRanks != 3 || res.Ranks != 3 {
		t.Errorf("degrade: final ranks %d / result ranks %d, want 3", rep.FinalRanks, res.Ranks)
	}
	// Degraded restore goes through the elastic remap path and is metered.
	if res.PhaseSeconds["remap"] <= 0 {
		t.Errorf("remap phase not metered on degraded recovery: %v", res.PhaseSeconds["remap"])
	}
}

func TestSuperviseCrashBeforeFirstCheckpointRestartsFresh(t *testing.T) {
	res, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{
			Ranks: 4,
			// Interval longer than the run: the crash at iteration 2 happens
			// before any save, so the restart must run from scratch.
			CheckpointEvery: 1000,
			Checkpoints:     NewMemoryCheckpointSink(),
			Faults:          &FaultPlan{Crashes: []Crash{{Rank: 1, Iter: 2, Op: "alltoallv"}}},
		},
		RecoveryBackoff: time.Millisecond,
	}, loadChain(chainNodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["path"] != chainPaths {
		t.Errorf("path count = %d, want %d", res.Counts["path"], chainPaths)
	}
	if rep.RecoveryAttempts != 1 {
		t.Errorf("report: %+v", rep)
	}
	// No save ever happened, so the restart could not resume: the report must
	// say so instead of silently pretending a checkpoint was found.
	if rep.RestartsFromScratch != 1 {
		t.Errorf("RestartsFromScratch = %d, want 1", rep.RestartsFromScratch)
	}
	if rep.DivergenceRollbacks != 0 {
		t.Errorf("a plain crash was classified as a divergence rollback: %+v", rep)
	}
}

func TestSuperviseClassifiesDivergenceRollback(t *testing.T) {
	var logs []string
	res, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{
			Ranks:           4,
			Integrity:       true,
			CheckpointEvery: 3,
			Checkpoints:     NewMemoryCheckpointSink(),
			// Flip a stored word of "path" on rank 0 at iteration 5: the
			// integrity layer must abort the attempt and the supervisor must
			// classify the failure as a divergence and roll back.
			Faults: &FaultPlan{Seed: 1, StateCorrupts: []StateCorrupt{{Rank: 0, Iter: 5, Rel: "path"}}},
		},
		RecoveryBackoff: time.Millisecond,
		Logf:            func(f string, a ...any) { logs = append(logs, fmt.Sprintf(f, a...)) },
	}, loadChain(chainNodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["path"] != chainPaths {
		t.Errorf("path count = %d, want %d", res.Counts["path"], chainPaths)
	}
	if rep.DivergenceRollbacks < 1 {
		t.Errorf("DivergenceRollbacks = %d, want >= 1 (report: %+v)", rep.DivergenceRollbacks, rep)
	}
	if rep.RestartsFromScratch != 0 {
		t.Errorf("rollback restarted from scratch %d times — the iteration-3 checkpoint should have been valid", rep.RestartsFromScratch)
	}
	found := false
	for _, l := range logs {
		if strings.Contains(l, "state diverged") {
			found = true
		}
	}
	if !found {
		t.Errorf("no divergence log line; logs: %q", logs)
	}
}

func TestSuperviseGivesUpAfterBudget(t *testing.T) {
	attempts := 0
	_, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{
			Ranks:           4,
			CheckpointEvery: 3,
			Checkpoints:     NewMemoryCheckpointSink(),
		},
		MaxRestarts:     2,
		RecoveryBackoff: time.Millisecond,
		FaultsFor: func(attempt int) *FaultPlan {
			attempts++
			// Kill a rank on every attempt: the budget must run out.
			return &FaultPlan{Crashes: []Crash{{Rank: 0, Iter: 4, Op: "alltoallv"}}}
		},
	}, loadChain(chainNodes), nil)
	if err == nil {
		t.Fatal("supervision with a crash on every attempt succeeded")
	}
	if rep.RecoveryAttempts != 2 || attempts != 3 {
		t.Errorf("recoveries=%d attempts=%d, want 2/3", rep.RecoveryAttempts, attempts)
	}
	if _, ok := AsRankFailure(err); !ok {
		t.Errorf("terminal error lost rank-failure detail: %v", err)
	}
}

func TestSuperviseRequiresSink(t *testing.T) {
	_, _, err := Supervise(tcProgram(t), SuperviseConfig{Config: Config{Ranks: 2}}, loadChain(5), nil)
	if err == nil {
		t.Fatal("Supervise without a sink did not error")
	}
}

func TestSuperviseNonFaultErrorIsTerminal(t *testing.T) {
	boom := errors.New("bad load")
	var calls atomic.Int64 // the load callback runs on every rank goroutine
	_, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{Ranks: 2, CheckpointEvery: 3, Checkpoints: NewMemoryCheckpointSink()},
	}, func(rk *Rank) error { calls.Add(1); return boom }, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if rep.RecoveryAttempts != 0 || calls.Load() != 2 { // one call per rank, single attempt
		t.Errorf("non-fault error was retried: recoveries=%d calls=%d", rep.RecoveryAttempts, calls.Load())
	}
}

// TestSuperviseFaultsForAndRanksForInteract schedules a fresh crash per
// attempt through FaultsFor while RanksFor pins each restart's world size:
// the two knobs must compose — every attempt runs at the pinned size, the
// per-attempt fault plan targets a rank valid in that world, and the final
// (smallest) world still lands the exact answer through the remap path.
func TestSuperviseFaultsForAndRanksForInteract(t *testing.T) {
	plans := map[int]*FaultPlan{
		0: {Crashes: []Crash{{Rank: 3, Iter: 5, Op: "alltoallv"}}},
		1: {Crashes: []Crash{{Rank: 2, Iter: 8, Op: "alltoallv"}}},
	}
	res, rep, err := Supervise(tcProgram(t), SuperviseConfig{
		Config: Config{
			Ranks:           4,
			CheckpointEvery: 3,
			Checkpoints:     NewMemoryCheckpointSink(),
		},
		RecoveryBackoff: time.Millisecond,
		FaultsFor:       func(attempt int) *FaultPlan { return plans[attempt] },
		RanksFor: func(restart, prev int, lost []int) int {
			// First restart shrinks to 3, second to 2 — independent of which
			// ranks died, unlike Degrade.
			return prev - 1
		},
	}, loadChain(chainNodes), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts["path"] != chainPaths {
		t.Errorf("path count = %d, want %d", res.Counts["path"], chainPaths)
	}
	wantSizes := []int{4, 3, 2}
	if len(rep.AttemptRanks) != 3 {
		t.Fatalf("AttemptRanks = %v, want three attempts", rep.AttemptRanks)
	}
	for i, want := range wantSizes {
		if rep.AttemptRanks[i] != want {
			t.Errorf("attempt %d ran at %d ranks, want %d", i, rep.AttemptRanks[i], want)
		}
	}
	if len(rep.RanksLost) != 2 || rep.RanksLost[0] != 3 || rep.RanksLost[1] != 2 {
		t.Errorf("RanksLost = %v, want [3 2]", rep.RanksLost)
	}
	if rep.FinalRanks != 2 || res.Ranks != 2 {
		t.Errorf("final world: report %d / result %d, want 2", rep.FinalRanks, res.Ranks)
	}
}
