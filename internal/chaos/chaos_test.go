package chaos

import (
	"errors"
	"testing"

	"paralagg"
)

// TestDifferentialCrashRestart is the acceptance gate of the fault-tolerance
// work: for every scenario and rank count, a run that crashes mid-fixpoint
// and resumes from its checkpoint must reproduce the fault-free relation
// contents bit for bit.
func TestDifferentialCrashRestart(t *testing.T) { rows(t, "", "crash", "resume/") }

// TestElasticCrashAutoRecover is the acceptance gate of the elastic-recovery
// work: for every scenario, a supervised run that crashes mid-fixpoint and
// auto-recovers — at the same size, degraded by one, and halved — must
// reproduce the fault-free relation contents bit for bit.
func TestElasticCrashAutoRecover(t *testing.T) { rows(t, "", "crash", "elastic/") }

// TestRepeatedCrashesAcrossRecoveries injects a second crash into the world
// built by the first recovery: the supervisor must survive both and still
// land on the fault-free answer.
func TestRepeatedCrashesAcrossRecoveries(t *testing.T) { rows(t, "", "crash", "repeated/") }

// TestStuckCollectiveSurfacesStructuredError asserts the watchdog converts
// a hung collective into ErrRankFailed on every rank instead of a deadlock.
func TestStuckCollectiveSurfacesStructuredError(t *testing.T) { rows(t, "", "crash", "stuck/") }

// TestResumeWithoutCheckpointErrs pins the empty-sink behaviour.
func TestResumeWithoutCheckpointErrs(t *testing.T) {
	sc := Scenarios()[0]
	_, err := paralagg.Exec(sc.Prog(), paralagg.Config{
		Ranks:       2,
		Checkpoints: paralagg.NewMemoryCheckpointSink(),
		Resume:      true,
	}, sc.Load, nil)
	if !errors.Is(err, paralagg.ErrNoCheckpoint) {
		t.Fatalf("err = %v, want ErrNoCheckpoint", err)
	}
}
