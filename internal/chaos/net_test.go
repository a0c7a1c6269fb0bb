package chaos

import "testing"

// The network suite's three kinds: wire faults the transport repairs below
// the runtime's waterline (bit-identical, counters prove they bit), a
// partition it cannot repair (structured failure on every rank), and a
// killed process recovered by the supervisor from shared checkpoints.
func TestTCPDifferentialRepairableFaults(t *testing.T)       { rows(t, "", "net", "repairable/") }
func TestTCPPartitionSurfacesStructuredFailure(t *testing.T) { rows(t, "", "net", "partition/") }
func TestTCPKillRecoveryBitIdentical(t *testing.T)           { rows(t, "", "net", "kill/") }
