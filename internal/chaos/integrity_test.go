package chaos

import (
	"testing"
	"time"
)

// TestCorruptionDifferential is the acceptance gate of the state-integrity
// work: for every scenario and rank count, a silent in-memory bit flip must
// be detected within the corrupted iteration on every rank, and a supervised
// run must roll back to the last verified checkpoint and reproduce the
// fault-free relation contents bit for bit.
func TestCorruptionDifferential(t *testing.T) { rows(t, "", "integrity", "state/") }

// TestCheckpointCorruptionDifferential proves recovery degrades by exactly
// one generation under checkpoint bit rot: the rotten newest generation is
// quarantined, the previous one restores, and the answer stays bit-identical.
func TestCheckpointCorruptionDifferential(t *testing.T) { rows(t, "", "integrity", "ckpt-rot/") }

// TestTCPCorruptionDetection proves the divergence digests work over the
// real transport: every gang member must abort with a structured
// ErrStateDiverged naming the corrupted iteration.
func TestTCPCorruptionDetection(t *testing.T) { rows(t, "", "integrity", "tcp-state/") }

// TestAdaptiveWatchdogConvertsHangWithinCeiling pins the latency claim: with
// healthy iterations feeding the EWMA before the hang, the adaptive deadline
// has tightened toward the floor, so the stuck collective converts to a
// structured failure in a small fraction of the ceiling.
func TestAdaptiveWatchdogConvertsHangWithinCeiling(t *testing.T) {
	sc := Scenarios()[0]
	const ceiling = 30 * time.Second
	start := time.Now()
	err := StuckCollective(sc, "", 2, ceiling)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("stuck collective produced no error")
	}
	if elapsed >= ceiling {
		t.Fatalf("conversion took %v, not within the %v ceiling", elapsed, ceiling)
	}
	// Floor (100ms) + slack: far below the ceiling proves the EWMA deadline,
	// not the ceiling, did the converting.
	if elapsed > 5*time.Second {
		t.Errorf("conversion took %v; the adaptive deadline should fire near the floor", elapsed)
	}
}
