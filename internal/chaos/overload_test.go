package chaos

import "testing"

// TestTCPSlowConsumerBoundedAndIdentical is the flow-control acceptance
// gate: a receiver that consumes slowly and advertises little credit must
// throttle its senders (stalls recorded, outboxes inside the window) while
// the answer stays bit-identical to the in-process run — and the adaptive
// watchdog must not mistake the throttled-but-live peer for a dead one.
func TestTCPSlowConsumerBoundedAndIdentical(t *testing.T) { rows(t, "", "overload", "slow-consumer/") }

// TestMemPressureSoftShedsAndCompletes is the soft-rung acceptance gate:
// phantom pressure into the soft band must raise collective shed responses,
// never escalate to the hard rung, and leave the answer bit-identical with
// the accounted peak inside the budget.
func TestMemPressureSoftShedsAndCompletes(t *testing.T) { rows(t, "", "overload", "mem-soft/") }

// TestMemPressureHardFailsStructurallyAndRecovers is the hard-rung
// acceptance gate: a budget violation must surface as ErrMemoryBudget on
// every rank (no OOM kill, no deadlock) and a supervised run must recover
// to the bit-identical answer.
func TestMemPressureHardFailsStructurallyAndRecovers(t *testing.T) {
	rows(t, "", "overload", "mem-hard/")
}

// TestDiskFullDegradesCheckpointing is the storage-degradation acceptance
// gate: a full checkpoint device mid-run must degrade that rank to
// in-memory checkpointing — run completes, answer bit-identical,
// degradation counted and observed, earlier on-disk generations intact.
func TestDiskFullDegradesCheckpointing(t *testing.T) { rows(t, "", "overload", "disk-full/") }
