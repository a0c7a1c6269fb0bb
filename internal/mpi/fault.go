package mpi

import (
	"errors"
	"fmt"
	"sort"
)

// This file is the runtime's fault story. Real deployments of the paper's
// system (16,384 MPI ranks on Theta) treat rank failure and stuck
// collectives as operational reality; the simulated runtime mirrors that
// with (1) a structured failure error that every surviving rank observes
// instead of a Go-runtime deadlock, and (2) a seeded, deterministic fault
// injector that can kill a rank at a chosen iteration/operation, hang it
// inside a collective, corrupt a message on the in-process wire, and tamper
// with the state, checkpoints, memory and disk the fixpoint driver uses.

// ErrRankFailed reports that a rank died or was declared dead: it panicked,
// was crashed by fault injection, or was absent from a collective past the
// watchdog timeout. The same value propagates (wrapped) to every surviving
// rank of the world, so callers can detect the failure with errors.As on
// the error World.Run returns and restart from a checkpoint.
type ErrRankFailed struct {
	Rank int    // the rank that failed
	Op   string // the operation during which the failure surfaced
	Iter int    // the epoch (fixpoint iteration) the failed rank had reached
	// Cause is the underlying reason: ErrInjectedCrash, the recovered panic
	// value wrapped as an error, or ErrWatchdogTimeout.
	Cause error
}

func (e *ErrRankFailed) Error() string {
	return fmt.Sprintf("mpi: rank %d failed in %s at iteration %d: %v", e.Rank, e.Op, e.Iter, e.Cause)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *ErrRankFailed) Unwrap() error { return e.Cause }

// Sentinel causes for ErrRankFailed.
var (
	// ErrInjectedCrash marks a failure produced by a FaultPlan Crash spec.
	ErrInjectedCrash = errors.New("injected crash")
	// ErrWatchdogTimeout marks a rank the collective watchdog declared dead
	// after it stayed absent from an in-progress collective past the timeout.
	ErrWatchdogTimeout = errors.New("absent from collective past watchdog timeout")
	// ErrRecvTimeout marks a collective hop that stayed unmatched past the
	// watchdog timeout with no absent rank to blame: a distributed world's
	// peer went silent, or in-process ranks wait on each other in a cycle.
	// The blocked rank errors out instead of wedging forever.
	ErrRecvTimeout = errors.New("no matching message within the watchdog timeout")
	// ErrPeerUnreachable marks a rank a networked transport declared dead:
	// its heartbeats stopped and reconnection attempts failed, so the failure
	// detector reported it to every surviving rank.
	ErrPeerUnreachable = errors.New("peer unreachable: heartbeat lost")
)

// AsRankFailure extracts the structured rank failure from an error chain
// (including the joined error World.Run returns). It reports false for
// ordinary (non-fault) errors.
func AsRankFailure(err error) (*ErrRankFailed, bool) {
	var rf *ErrRankFailed
	ok := errors.As(err, &rf)
	return rf, ok
}

// ErrStateDiverged reports that the online integrity check caught a rank
// whose relation state no longer agrees with the collective digest: a
// silent in-memory corruption (or a logic bug) that would otherwise be
// served indefinitely. The digests ride the per-iteration convergence
// Allreduce, so every rank computes the same verdict and raises the same
// divergence in the same iteration — the supervisor can then roll all of
// them back to the last verified checkpoint together.
type ErrStateDiverged struct {
	Iter  int    // fixpoint iteration at which the mismatch was detected
	Rel   string // relation whose digests disagreed
	Rank  int    // the rank reporting (every rank reports its own)
	Check string // which invariant tripped ("replica", "delta", "history")
}

func (e *ErrStateDiverged) Error() string {
	return fmt.Sprintf("mpi: state diverged at iteration %d: relation %s failed the %s digest check (rank %d)",
		e.Iter, e.Rel, e.Check, e.Rank)
}

// AsStateDivergence extracts a divergence from an error chain (including
// the joined error World.Run returns and the ErrRankFailed values wrapping
// it). It reports false for every other failure mode.
func AsStateDivergence(err error) (*ErrStateDiverged, bool) {
	var sd *ErrStateDiverged
	ok := errors.As(err, &sd)
	return sd, ok
}

// RankFailures collects every distinct rank failure in an error tree.
// World.Run joins the failures of all ranks that died, so a multi-rank
// incident surfaces as several wrapped ErrRankFailed values; errors.As only
// finds the first. The result is deduplicated by rank (first occurrence
// wins) and sorted by rank, so supervisors can report exactly which ranks
// were lost. It returns nil for ordinary (non-fault) errors.
func RankFailures(err error) []*ErrRankFailed {
	var out []*ErrRankFailed
	seen := map[int]bool{}
	var walk func(error)
	walk = func(e error) {
		if e == nil {
			return
		}
		if rf, ok := e.(*ErrRankFailed); ok {
			if !seen[rf.Rank] {
				seen[rf.Rank] = true
				out = append(out, rf)
			}
			// Keep walking: a watchdog failure can wrap another rank's death.
		}
		switch u := e.(type) {
		case interface{ Unwrap() []error }:
			for _, inner := range u.Unwrap() {
				walk(inner)
			}
		case interface{ Unwrap() error }:
			walk(u.Unwrap())
		}
	}
	walk(err)
	sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	return out
}

// AnyIter in a fault spec matches every epoch.
const AnyIter = -1

// Crash kills a rank deterministically: the rank panics with an
// ErrRankFailed the moment it enters the After-th communication operation
// matching (Iter, Op). Iter is the rank's current epoch (AnyIter matches
// all); Op is the collective's name ("barrier", "allreduce",
// "allreducevec", "allgather", "alltoallv"), "" matching all.
type Crash struct {
	Rank  int
	Iter  int
	Op    string
	After int // number of matching operations to let pass first
}

// Hang blocks a rank forever inside the matching operation — the "stuck
// collective" failure mode. The rank never arrives at the collective; with
// a watchdog configured it is declared dead after the timeout and every
// peer receives ErrRankFailed instead of deadlocking. The hung goroutine
// itself unblocks (and dies with its failure) once the run aborts.
type Hang struct {
	Rank int
	Iter int
	Op   string
}

// Corrupt XORs a deterministic mask into one payload word of the After-th
// message (counting from 0) the rank puts on the in-process wire at a
// matching epoch — collective hops included; empty payloads are not
// counted — modeling a bit flip on the wire. The flip happens after the
// sender's CRC32C is computed, so the receiver detects it and fails with
// ErrCorruptMessage attributed to the sender and the collective — corruption
// can never produce a silently wrong answer. (In-process transport only; the
// TCP transport injects wire corruption at the frame layer, where it is
// caught and repaired by retransmission.)
type Corrupt struct {
	Rank  int // sending rank
	Iter  int
	After int
}

// StateCorrupt flips one deterministically chosen word of a rank's
// in-memory relation state at the top of the matching iteration — the
// silent-corruption fault the online integrity digests exist to catch. The
// flip lands in stored state (an accumulator value word or a tuple word),
// never in a message, so no CRC sees it; only the per-iteration digest
// agreement can. A spec fires once.
type StateCorrupt struct {
	Rank int
	Iter int
	Rel  string // name of the relation to corrupt
}

// CkptCorrupt flips one payload word of the rank's newest on-disk (or
// in-memory) checkpoint generation immediately after the save at the
// matching iteration completes — the torn/bit-rotted checkpoint fault that
// LatestValid must detect, quarantine, and fall back from. A spec fires
// once.
type CkptCorrupt struct {
	Rank int
	Iter int
}

// MemPressure inflates a rank's accounted memory by Bytes phantom bytes at
// the top of the matching iteration — a deterministic stand-in for a
// co-tenant eating the budget. The resource accountant reacts exactly as it
// would to real growth: shed scratch at the soft watermark, fail the
// iteration structurally at the hard one. A spec fires once and the phantom
// charge persists for the rest of the run (until a supervisor restart).
type MemPressure struct {
	Rank  int
	Iter  int
	Bytes int64
}

// DiskFull makes the rank's next checkpoint save at the matching iteration
// fail as if the device were full — the degradation path (quarantine,
// prune, fall back to a memory sink) must absorb it without aborting the
// run. A spec fires once.
type DiskFull struct {
	Rank int
	Iter int
}

// FaultPlan is a seeded, deterministic fault schedule. Every collective of
// every rank consults it at entry (Crashes, Hangs), the in-process wire on
// every message (Corrupts), and the fixpoint driver at each iteration
// (StateCorrupts, CkptCorrupts, MemPressures, DiskFulls). All randomness
// derives from Seed via counter-based hashing, so a plan replays
// identically across runs — the property the chaos harness's differential
// tests rely on. A nil plan injects nothing.
type FaultPlan struct {
	Seed          int64
	Crashes       []Crash
	Hangs         []Hang
	Corrupts      []Corrupt
	StateCorrupts []StateCorrupt
	CkptCorrupts  []CkptCorrupt
	MemPressures  []MemPressure
	DiskFulls     []DiskFull
}

// faultState holds the per-run mutable matching counters for a plan. Each
// counter is touched only by the goroutine of the rank its spec names, so
// no locking is needed.
type faultState struct {
	plan        *FaultPlan
	crashHits   []int
	hangFired   []bool
	corruptHits []int
	stateFired  []bool
	ckptFired   []bool
	memFired    []bool
	diskFired   []bool
}

func newFaultState(plan *FaultPlan) *faultState {
	if plan == nil {
		return nil
	}
	return &faultState{
		plan:        plan,
		crashHits:   make([]int, len(plan.Crashes)),
		hangFired:   make([]bool, len(plan.Hangs)),
		corruptHits: make([]int, len(plan.Corrupts)),
		stateFired:  make([]bool, len(plan.StateCorrupts)),
		ckptFired:   make([]bool, len(plan.CkptCorrupts)),
		memFired:    make([]bool, len(plan.MemPressures)),
		diskFired:   make([]bool, len(plan.DiskFulls)),
	}
}

func matchIter(specIter, iter int) bool { return specIter == AnyIter || specIter == iter }
func matchOp(specOp, op string) bool    { return specOp == "" || specOp == op }

// crashNow reports whether rank must die entering op at epoch iter.
func (fs *faultState) crashNow(rank, iter int, op string) bool {
	for i, c := range fs.plan.Crashes {
		if c.Rank != rank || !matchIter(c.Iter, iter) || !matchOp(c.Op, op) {
			continue
		}
		fs.crashHits[i]++
		if fs.crashHits[i] > c.After {
			return true
		}
	}
	return false
}

// hangNow reports whether rank must hang entering op at epoch iter. A hang
// fires once.
func (fs *faultState) hangNow(rank, iter int, op string) bool {
	for i, h := range fs.plan.Hangs {
		// The rank check must come first: hangFired[i] is owned by the
		// goroutine of the rank the spec names, and only that goroutine may
		// touch it.
		if h.Rank != rank || fs.hangFired[i] || !matchIter(h.Iter, iter) || !matchOp(h.Op, op) {
			continue
		}
		fs.hangFired[i] = true
		return true
	}
	return false
}

// corruptNow reports whether rank's current send must be corrupted, and if
// so at which payload word and with which mask.
func (fs *faultState) corruptNow(rank, iter, payloadLen int) (word int, mask Word, ok bool) {
	if payloadLen == 0 {
		return 0, 0, false
	}
	for i, c := range fs.plan.Corrupts {
		if c.Rank != rank || !matchIter(c.Iter, iter) {
			continue
		}
		fs.corruptHits[i]++
		if fs.corruptHits[i] != c.After+1 {
			continue
		}
		h := faultHash(fs.plan.Seed, 0x44, rank, i, fs.corruptHits[i])
		mask = h | 1 // never a zero mask: the flip must be observable
		return int(h>>17) % payloadLen, mask, true
	}
	return 0, 0, false
}

// stateCorruptNow reports whether rank's in-memory state must be corrupted
// at epoch iter, and if so in which relation and with which mask. Fires at
// most once per spec.
func (fs *faultState) stateCorruptNow(rank, iter int) (rel string, mask Word, ok bool) {
	for i, sc := range fs.plan.StateCorrupts {
		// The rank check must come first: stateFired[i] is owned by the
		// goroutine of the rank the spec names.
		if sc.Rank != rank || fs.stateFired[i] || !matchIter(sc.Iter, iter) {
			continue
		}
		fs.stateFired[i] = true
		return sc.Rel, faultHash(fs.plan.Seed, 0x55, rank, i, iter) | 1, true
	}
	return "", 0, false
}

// ckptCorruptNow reports whether the checkpoint rank just saved at epoch
// iter must be tampered with. Fires at most once per spec.
func (fs *faultState) ckptCorruptNow(rank, iter int) bool {
	for i, cc := range fs.plan.CkptCorrupts {
		if cc.Rank != rank || fs.ckptFired[i] || !matchIter(cc.Iter, iter) {
			continue
		}
		fs.ckptFired[i] = true
		return true
	}
	return false
}

// memPressureNow returns the phantom bytes to charge rank's accountant at
// epoch iter (0 = none). Fires at most once per spec.
func (fs *faultState) memPressureNow(rank, iter int) (bytes int64, ok bool) {
	for i, mp := range fs.plan.MemPressures {
		// The rank check must come first: memFired[i] is owned by the
		// goroutine of the rank the spec names.
		if mp.Rank != rank || fs.memFired[i] || !matchIter(mp.Iter, iter) {
			continue
		}
		fs.memFired[i] = true
		return mp.Bytes, true
	}
	return 0, false
}

// diskFullNow reports whether rank's checkpoint save at epoch iter must fail
// as if the device were full. Fires at most once per spec.
func (fs *faultState) diskFullNow(rank, iter int) bool {
	for i, df := range fs.plan.DiskFulls {
		if df.Rank != rank || fs.diskFired[i] || !matchIter(df.Iter, iter) {
			continue
		}
		fs.diskFired[i] = true
		return true
	}
	return false
}

// StateCorruptNow consults the fault plan for an in-memory state-corruption
// fault due on this rank at epoch iter. The fixpoint driver calls it at the
// top of each iteration and applies the returned mask to the named
// relation's stored state.
func (c *Comm) StateCorruptNow(iter int) (rel string, mask Word, ok bool) {
	if fs := c.world.fstate; fs != nil {
		return fs.stateCorruptNow(c.rank, iter)
	}
	return "", 0, false
}

// CkptCorruptNow consults the fault plan for a checkpoint-corruption fault
// due on this rank at epoch iter. The fixpoint driver calls it right after
// a successful save and, when it fires, tampers with the newest stored
// generation.
func (c *Comm) CkptCorruptNow(iter int) bool {
	if fs := c.world.fstate; fs != nil {
		return fs.ckptCorruptNow(c.rank, iter)
	}
	return false
}

// MemPressureNow consults the fault plan for a phantom memory charge due on
// this rank at epoch iter. The fixpoint driver calls it while feeding the
// resource accountant and adds the returned bytes as phantom usage.
func (c *Comm) MemPressureNow(iter int) (bytes int64, ok bool) {
	if fs := c.world.fstate; fs != nil {
		return fs.memPressureNow(c.rank, iter)
	}
	return 0, false
}

// DiskFullNow consults the fault plan for a checkpoint-storage fault due on
// this rank at epoch iter. The fixpoint driver calls it before a periodic
// save and, when it fires, treats the save as failed with a storage error.
func (c *Comm) DiskFullNow(iter int) bool {
	if fs := c.world.fstate; fs != nil {
		return fs.diskFullNow(c.rank, iter)
	}
	return false
}

// faultHash is a counter-based splitmix64 over the spec coordinates: the
// injector's only source of randomness.
func faultHash(seed int64, stream, a, b, c int) uint64 {
	h := uint64(seed) ^ 0x9e3779b97f4a7c15
	for _, v := range [4]uint64{uint64(stream), uint64(a), uint64(b), uint64(c)} {
		h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
		h ^= h >> 30
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
		h *= 0x94d049bb133111eb
		h ^= h >> 31
	}
	return h
}
