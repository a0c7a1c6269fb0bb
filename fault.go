package paralagg

import (
	"errors"

	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/resource"
)

// Fault tolerance surface: deterministic fault injection into the simulated
// runtime, structured rank-failure errors, and checkpoint sinks for
// crash/restart. See Config.Faults, Config.Watchdog, Config.CheckpointEvery
// and Config.Resume for how these plug into Exec.

// FaultPlan is a seeded, deterministic schedule of injected faults: rank
// crashes and stuck collectives at collective entry, corrupted messages on
// the in-process wire, and the state, checkpoint, memory and disk faults
// below. The same plan against the same program yields the same failure.
type FaultPlan = mpi.FaultPlan

// Fault specs for FaultPlan.
type (
	// Crash kills a rank when it enters a matching collective.
	Crash = mpi.Crash
	// Hang makes a rank block forever in a matching collective (watchdog
	// fodder).
	Hang = mpi.Hang
	// Corrupt flips bits in one payload word of the After-th message a rank
	// puts on the in-process wire, collective hops included.
	Corrupt = mpi.Corrupt
)

// AnyIter in a fault spec matches every iteration.
const AnyIter = mpi.AnyIter

// State-integrity fault specs for FaultPlan (chaos coverage for the
// divergence detector and checkpoint validation).
type (
	// StateCorrupt flips bits in one stored tuple of a relation on one rank
	// at the top of a fixpoint iteration — a simulated silent memory error.
	// With Config.Integrity set the next convergence agreement detects it.
	StateCorrupt = mpi.StateCorrupt
	// CkptCorrupt flips one payload byte of the rank's newest checkpoint
	// file right after it is written — simulated media bit rot. Validation
	// quarantines the generation and recovery falls back one generation.
	CkptCorrupt = mpi.CkptCorrupt
)

// Overload fault specs for FaultPlan (chaos coverage for the memory budget
// ladder and the checkpoint degradation path).
type (
	// MemPressure charges a rank's memory accountant a one-time phantom
	// byte amount at the top of an iteration — deterministic budget
	// pressure without burning host memory. With Config.MemBudget set the
	// pressure ladder responds exactly as it would to real growth.
	MemPressure = mpi.MemPressure
	// DiskFull makes a rank's checkpoint save at the matching iteration
	// fail as if the device were full; the run degrades to in-memory
	// checkpointing with a warning instead of aborting.
	DiskFull = mpi.DiskFull
)

// ErrMemoryBudget reports a hard memory-budget violation: the rank's
// accounted usage reached Config.MemBudget and the iteration was failed
// structurally (inside an ErrRankFailed) rather than allowed to OOM.
type ErrMemoryBudget = resource.ErrMemoryBudget

// AsMemoryBudget extracts the structured budget violation from an Exec
// error, if one is present (however deeply joined or wrapped).
func AsMemoryBudget(err error) (*ErrMemoryBudget, bool) {
	var mb *ErrMemoryBudget
	ok := errors.As(err, &mb)
	return mb, ok
}

// ErrCheckpointStorage reports a checkpoint save that persistent storage
// refused even after freeing space (device full, short write); the partial
// file was quarantined aside as .bad and the run degraded to in-memory
// checkpointing.
type ErrCheckpointStorage = ra.ErrCheckpointStorage

// AsCheckpointStorage extracts the structured storage failure from an
// error chain.
func AsCheckpointStorage(err error) (*ErrCheckpointStorage, bool) {
	return ra.AsCheckpointStorage(err)
}

// CheckpointDegradations reports how many fixpoint runs in this process
// fell back to in-memory checkpointing after persistent storage failed.
func CheckpointDegradations() int64 { return ra.CheckpointDegradations() }

// ErrStateDiverged reports that a relation's replicated state went out of
// agreement across ranks: the per-iteration fingerprint Allreduce saw
// inconsistent digests. Every rank of the world observes the same divergence
// in the same iteration.
type ErrStateDiverged = mpi.ErrStateDiverged

// AsStateDivergence extracts the structured divergence report from an Exec
// error, if one is present (however deeply joined or wrapped).
func AsStateDivergence(err error) (*ErrStateDiverged, bool) { return mpi.AsStateDivergence(err) }

// ErrRankFailed reports which rank failed, in which operation, at which
// fixpoint iteration. Every rank's error from a failed Exec wraps one.
type ErrRankFailed = mpi.ErrRankFailed

// Failure causes distinguishable with errors.Is.
var (
	// ErrInjectedCrash marks failures produced by a FaultPlan Crash spec.
	ErrInjectedCrash = mpi.ErrInjectedCrash
	// ErrWatchdogTimeout marks ranks the collective watchdog declared dead.
	ErrWatchdogTimeout = mpi.ErrWatchdogTimeout
	// ErrRecvTimeout marks a collective hop unmatched past the watchdog
	// timeout with no absent rank to blame (a silent peer of a TCP gang, or
	// in-process ranks waiting on each other).
	ErrRecvTimeout = mpi.ErrRecvTimeout
	// ErrPeerUnreachable marks a rank a networked transport's failure
	// detector declared dead after its heartbeats stopped.
	ErrPeerUnreachable = mpi.ErrPeerUnreachable
	// ErrCorruptMessage marks a message whose CRC32C verification failed:
	// the payload was altered between send and receive.
	ErrCorruptMessage = mpi.ErrCorruptMessage
)

// Transport is the wire a distributed execution runs over (Config.Transport):
// one process per rank, real sockets between them. internal/transport/tcp
// implements it with retry/backoff connection establishment, CRC32C-framed
// messages, reconnect-with-retransmission, and heartbeat failure detection.
type Transport = mpi.Transport

// NetStats carries a networked transport's robustness counters (dial
// retries, reconnects, retransmits, duplicate drops, heartbeat misses,
// CRC rejections).
type NetStats = mpi.NetStats

// Topology describes where ranks live relative to each other — a host/rack
// grouping plus optional per-link costs (Config.Topology). The tree
// collective schedule shapes itself around the grouping. The link costs are
// parsed and validated as the input of link-cost emulation, which nothing
// performs yet, so no run prices them. Build one with ParseTopologyFile,
// TopologyFromHosts, or TopologyFromAddrs.
type Topology = mpi.Topology

// ParseTopologyFile reads a topology description ("host <rank> <name>" and
// "cost <hostA> <hostB> <x>" directives) for a world of the given size.
func ParseTopologyFile(path string, size int) (*Topology, error) {
	return mpi.ParseTopologyFile(path, size)
}

// TopologyFromHosts builds a topology from a per-rank host-name list.
func TopologyFromHosts(hostnames []string) *Topology { return mpi.TopologyFromHosts(hostnames) }

// TopologyFromAddrs derives a topology from a gang's peer address list:
// ranks whose "host:port" addresses share a host part share a group.
func TopologyFromAddrs(addrs []string) *Topology { return mpi.TopologyFromAddrs(addrs) }

// AsRankFailure extracts the structured rank failure from an Exec error, if
// one is present (however deeply joined or wrapped).
func AsRankFailure(err error) (*ErrRankFailed, bool) { return mpi.AsRankFailure(err) }

// CheckpointSink stores verified, multi-generation fixpoint snapshots per
// rank. Every Save appends a new generation; validation happens on read, so
// a corrupted newest generation degrades recovery by one generation instead
// of losing it.
type CheckpointSink = ra.CheckpointSink

// Checkpoint is one rank's saved fixpoint position.
type Checkpoint = ra.Checkpoint

// Position identifies one agreed checkpoint generation: the (stratum, iter,
// ranks) coordinate every rank's snapshot must match.
type Position = ra.Position

// ErrNoCheckpoint reports a Resume with an empty sink (or one whose every
// generation failed validation).
var ErrNoCheckpoint = ra.ErrNoCheckpoint

// DefaultCheckpointKeep is the number of checkpoint generations a sink
// retains per rank when no explicit keep count is configured.
const DefaultCheckpointKeep = ra.DefaultCheckpointKeep

// NewMemoryCheckpointSink returns an in-process sink: it survives a crashed
// world (restart within the same process) but not a process restart. It
// retains DefaultCheckpointKeep generations per rank.
func NewMemoryCheckpointSink() CheckpointSink { return ra.NewMemoryCheckpointSink() }

// NewMemoryCheckpointSinkKeep is NewMemoryCheckpointSink with an explicit
// per-rank generation retention count (keep < 1 means DefaultCheckpointKeep).
func NewMemoryCheckpointSinkKeep(keep int) CheckpointSink {
	return ra.NewMemoryCheckpointSinkKeep(keep)
}

// NewFileCheckpointSink returns a sink persisting checkpoint files per rank
// under dir, surviving process restarts. Writes are fsynced and atomically
// renamed; each file carries a format manifest with per-relation digests and
// a whole-file CRC, verified on every read. It retains DefaultCheckpointKeep
// generations per rank.
func NewFileCheckpointSink(dir string) CheckpointSink { return ra.FileCheckpointSink{Dir: dir} }

// NewFileCheckpointSinkKeep is NewFileCheckpointSink with an explicit
// per-rank generation retention count (keep < 1 means DefaultCheckpointKeep).
func NewFileCheckpointSinkKeep(dir string, keep int) CheckpointSink {
	return ra.FileCheckpointSink{Dir: dir, Keep: keep}
}

// CheckpointIntegrityStats reports process-wide checkpoint validation
// counters: how many stored generations failed verification and how many
// were quarantined (renamed aside / dropped) as a result.
func CheckpointIntegrityStats() (validationFailures, quarantined int64) {
	return ra.CheckpointIntegrityStats()
}
