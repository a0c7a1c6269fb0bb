// Package mpi provides a pure-Go SPMD message-passing runtime that stands in
// for MPI in this reproduction. Ranks are goroutines spawned by World.Run
// (or one OS process per rank over a Transport, NewDistributedWorld); they
// communicate only through the collectives the paper's algorithms use:
// Barrier, Allreduce (the planner's one-word vote), AllreduceVec, Allgather
// and Alltoallv (every tuple's move), plus the checkpoint-mark rendezvous.
// Each collective is built from point-to-point hops over one mailbox per
// rank, shaped by the world's schedule (flat star or binomial tree). Every
// collective is metered so that higher layers can report communication
// volume — the quantity the paper's optimizations target.
//
// The runtime is deliberately faithful to MPI's restrictions: only flat
// word buffers travel between ranks, collectives must be called by every
// rank of the communicator in the same order, and received buffers are
// private copies (as if they had crossed a network).
//
// Unlike raw MPI, the runtime has a fault story: a panicking rank becomes a
// structured ErrRankFailed delivered to every surviving rank (instead of a
// Go-runtime deadlock in whatever collective the survivors were blocked in),
// an optional watchdog deadline on every hop declares the rank a stuck
// collective is waiting for dead, and a seeded FaultPlan injects crashes and
// hangs at collective entry, corruption on the in-process wire, and state,
// checkpoint, memory and disk faults for the fixpoint driver, all
// deterministically for chaos testing.
package mpi

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"paralagg/internal/obs"
)

// Word is the unit of data movement: one 64-bit column value. It matches
// the tuple column type so relation buffers transmit without conversion.
type Word = uint64

// WordBytes is the wire size of one Word.
const WordBytes = 8

// World is a group of ranks that can communicate. It corresponds to
// MPI_COMM_WORLD: create one per program run, then Run an SPMD body on it.
// A world is single-shot with respect to failure: once any rank fails the
// world is poisoned and further Runs return the failure immediately —
// recovery means building a fresh world and restarting from a checkpoint.
type World struct {
	size  int
	boxes []*mailbox
	stats *Stats

	// dist is set on distributed worlds (NewDistributedWorld): this process
	// hosts exactly one rank and every off-process transfer crosses a real
	// Transport. nil means the in-process simulated runtime (memTransport).
	dist *distState

	// sched is the collective schedule (SetSchedule); topo the optional rank
	// placement shaping the tree (SetTopology). Both fixed before Run.
	sched ScheduleKind
	topo  *Topology

	// Fault tolerance state. wd is the receive deadline (nil = none).
	plan   *FaultPlan
	fstate *faultState
	wd     *adaptiveWatchdog
	epochs []atomic.Int64

	// blockedOn[r] is the rank r is waiting for inside a collective receive,
	// plus one (zero: not waiting). A receive that hits its deadline follows
	// it to the rank actually absent from the collective (recvFailed).
	blockedOn []atomic.Int32

	// observer, when set, receives a live obs.KindRankFailed event the
	// moment the world is poisoned — failures become visible before the
	// collectives unwind and Run returns.
	observer obs.Observer

	// recovering counts peers the transport declared silent but replaceable
	// (hot rank replacement): while it is non-zero, receive deadlines park
	// instead of failing, so survivors wait out the replacement window. The
	// transport's ReplaceTimeout bounds the park — a peer that never comes
	// back transitions to PeerFailed, which poisons the world and unblocks
	// everything.
	recovering atomic.Int64

	// abort holds the first rank failure; it is set exactly once and then
	// read lock-free from every blocking wait. abortCh closes alongside it
	// so injected hangs (and any other channel-based waits) can unblock.
	abort     atomic.Pointer[ErrRankFailed]
	abortOnce sync.Once
	abortCh   chan struct{}

	// exitMu guards rank exit bookkeeping and the error slots. A rank the
	// watchdog abandoned may exit late (after Run returned); its error write
	// still happens under exitMu and is simply never read. The two flags are
	// written under exitMu (Run waits on them) and read lock-free by gone.
	exitMu    sync.Mutex
	exitCond  *sync.Cond
	exited    []atomic.Bool
	abandoned []atomic.Bool
	errs      []error
}

// NewWorld creates a world with the given number of ranks. Size must be at
// least 1.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	w := &World{
		size:      size,
		boxes:     make([]*mailbox, size),
		stats:     newStats(size),
		epochs:    make([]atomic.Int64, size),
		blockedOn: make([]atomic.Int32, size),
		abortCh:   make(chan struct{}),
		exited:    make([]atomic.Bool, size),
		abandoned: make([]atomic.Bool, size),
		errs:      make([]error, size),
	}
	w.exitCond = sync.NewCond(&w.exitMu)
	for i := range w.boxes {
		w.boxes[i] = newMailbox(w)
	}
	return w
}

// Size returns the number of ranks in the world.
func (w *World) Size() int { return w.size }

// Stats returns the world's communication meter. It is valid to read after
// Run returns; snapshots may also be taken mid-run by the ranks themselves.
func (w *World) Stats() *Stats { return w.stats }

// SetFaultPlan installs a deterministic fault schedule. It must be called
// before Run.
func (w *World) SetFaultPlan(plan *FaultPlan) {
	w.plan = plan
	w.fstate = newFaultState(plan)
}

// SetObserver attaches a live event stream for world-level events (rank
// failures). It must be called before Run; nil (the default) is free.
func (w *World) SetObserver(o obs.Observer) { w.observer = o }

// SetSchedule selects the collective schedule (flat or tree) the world's
// collectives route through. It must be called before Run; the zero value
// is the flat star, byte-identical to the pre-schedule runtime.
func (w *World) SetSchedule(k ScheduleKind) { w.sched = k }

// SetTopology installs the rank placement the tree schedule shapes itself
// around. It must be called before Run; nil (the default) means a uniform
// single-host topology.
func (w *World) SetTopology(t *Topology) { w.topo = t }

// newComm builds one rank's communicator.
func (w *World) newComm(rank int) *Comm {
	c := &Comm{world: w, rank: rank, sched: w.sched}
	if w.dist != nil {
		c.tr = w.dist.tr
	} else {
		c.tr = memTransport{world: w, rank: rank}
	}
	return c
}

// Recovering reports whether any peer is parked in the hot-replacement
// window (silent but not yet declared dead).
func (w *World) Recovering() bool { return w.recovering.Load() > 0 }

// fail records the first rank failure, poisons the world, and wakes every
// blocked wait (mailboxes, injected hangs) so each blocked rank can unwind
// with the failure. Later failures are ignored: the run is already aborting.
func (w *World) fail(rf *ErrRankFailed) {
	if !w.abort.CompareAndSwap(nil, rf) {
		return
	}
	if w.observer != nil {
		e := obs.Get()
		e.Kind = obs.KindRankFailed
		if _, diverged := AsStateDivergence(rf); diverged {
			// A divergence is not a dead rank: every rank raises it together
			// and the supervisor's response is a rollback, not a degrade.
			e.Kind = obs.KindDivergence
		}
		e.Rank, e.Iter = rf.Rank, rf.Iter
		e.Name = rf.Op
		if rf.Cause != nil {
			e.Err = rf.Cause.Error()
		}
		e.End = time.Now().UnixNano()
		obs.Emit(w.observer, e)
	}
	w.abortOnce.Do(func() { close(w.abortCh) })
	w.wakeReceivers()
}

// wakeReceivers makes every blocked receive re-check its exit conditions.
func (w *World) wakeReceivers() {
	for _, box := range w.boxes {
		box.wake()
	}
}

// abortPanic unwinds a surviving rank that observed a peer's failure. It is
// distinct from *ErrRankFailed panics, which mark the failing rank itself.
type abortPanic struct{ cause *ErrRankFailed }

// checkAbort panics out of the calling rank if the world is aborting. The
// failed rank itself never calls it (it is already unwinding).
func (w *World) checkAbort() {
	if rf := w.abort.Load(); rf != nil {
		panic(abortPanic{rf})
	}
}

// rankExited records a rank's final error and wakes Run's waiter and every
// receive blocked on the rank: it will never send again.
func (w *World) rankExited(rank int, err error) {
	w.blockedOn[rank].Store(0)
	w.exitMu.Lock()
	w.errs[rank] = err
	w.exited[rank].Store(true)
	w.exitMu.Unlock()
	w.exitCond.Broadcast()
	w.wakeReceivers()
}

// abandon marks a rank the watchdog declared dead so Run stops waiting for
// it. The goroutine may still be blocked (a genuinely wedged body cannot be
// killed); if it later unblocks its exit is recorded but no longer observed.
func (w *World) abandon(rank int) {
	w.exitMu.Lock()
	w.abandoned[rank].Store(true)
	w.exitMu.Unlock()
	w.exitCond.Broadcast()
	w.wakeReceivers()
}

// gone reports whether an in-process rank can no longer send: its body
// returned or the watchdog abandoned it. (A distributed world only ever
// records its own rank here; remote deaths arrive through the transport.)
func (w *World) gone(rank int) bool {
	return w.exited[rank].Load() || w.abandoned[rank].Load()
}

// Run executes body once per rank, each on its own goroutine, and waits for
// all of them to finish (or be declared dead by the watchdog). It returns
// the errors.Join of every rank's error, so no failure is shadowed by a
// lower-numbered rank's.
//
// A panicking rank no longer takes the process down or deadlocks its peers:
// the panic is recovered into an ErrRankFailed, the world aborts, and every
// rank blocked in a receive or collective unwinds with an error wrapping
// the same failure. Injected faults (SetFaultPlan) and watchdog timeouts
// (SetWatchdog) surface the same way.
func (w *World) Run(body func(c *Comm) error) error {
	if rf := w.abort.Load(); rf != nil {
		return fmt.Errorf("mpi: world already aborted: %w", rf)
	}
	for r := 0; r < w.size; r++ {
		go w.runRank(r, body)
	}

	w.exitMu.Lock()
	for {
		done := true
		for r := 0; r < w.size; r++ {
			if !w.gone(r) {
				done = false
				break
			}
		}
		if done {
			break
		}
		w.exitCond.Wait()
	}
	errs := make([]error, w.size)
	for r := 0; r < w.size; r++ {
		if w.exited[r].Load() {
			errs[r] = w.errs[r]
		} else if w.abandoned[r].Load() {
			if rf := w.abort.Load(); rf != nil && rf.Rank == r {
				errs[r] = rf
			} else {
				errs[r] = fmt.Errorf("mpi: rank %d abandoned by watchdog", r)
			}
		}
	}
	w.exitMu.Unlock()
	return errors.Join(errs...)
}

// runRank executes body as one rank, converting panics into structured
// failures: an *ErrRankFailed marks this rank as the failure, an abortPanic
// unwinds a survivor of someone else's failure, and any other panic value
// becomes a fresh rank failure. It records the rank's exit either way.
func (w *World) runRank(rank int, body func(c *Comm) error) {
	var err error
	defer func() {
		if p := recover(); p != nil {
			switch v := p.(type) {
			case *ErrRankFailed:
				// This rank is the failure (injected crash, declared
				// hang, or argument-validation panic already wrapped).
				err = v
				w.fail(v)
			case abortPanic:
				err = fmt.Errorf("mpi: rank %d aborted: %w", rank, v.cause)
			default:
				rf := &ErrRankFailed{
					Rank: rank, Op: "panic", Iter: int(w.epochs[rank].Load()),
					Cause: fmt.Errorf("panic: %v", p),
				}
				err = rf
				w.fail(rf)
			}
		}
		w.rankExited(rank, err)
	}()
	err = body(w.newComm(rank))
}

// Comm is one rank's handle on the world: the receiver for all
// collectives. A Comm is only valid on the goroutine Run
// created it for.
type Comm struct {
	world *World
	rank  int
	tr    Transport // the wire this rank sends through

	// word stages Allreduce's one-word payload (every send copies it out).
	word [1]Word

	// recvRows is the reusable per-rank header for Alltoallv results: the
	// outer slice is recycled across calls (the payload rows it points at
	// are still private per call). See Alltoallv's ownership contract.
	recvRows [][]Word

	// sched is the world's collective schedule, fixed for the comm's
	// lifetime; tree caches this rank's view of the rank-0 schedule tree
	// (see schedule.go).
	sched ScheduleKind
	tree  *rankTree
}

// recvHeader returns the rank-private outer slice for a vector collective
// result, recycled across calls.
func (c *Comm) recvHeader(size int) [][]Word {
	if cap(c.recvRows) < size {
		c.recvRows = make([][]Word, size)
	}
	c.recvRows = c.recvRows[:size]
	return c.recvRows
}

// Rank returns this rank's id in [0, Size).
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the world.
func (c *Comm) Size() int { return c.world.size }

// Stats returns the shared communication meter.
func (c *Comm) Stats() *Stats { return c.world.stats }

// SetEpoch publishes this rank's current fixpoint iteration to the fault
// layer: injected faults can target a specific iteration, and failure
// errors report the iteration the rank had reached. The fixpoint driver
// calls it at the top of every iteration; the timekeeper rank's epoch
// transitions additionally feed the adaptive watchdog's iteration-time
// EWMA.
func (c *Comm) SetEpoch(iter int) {
	w := c.world
	prev := w.epochs[c.rank].Swap(int64(iter))
	if w.wd != nil && prev != int64(iter) && c.rank == w.timekeeper() {
		w.wd.observe(time.Now().UnixNano())
	}
}

// Epoch returns the last value passed to SetEpoch (0 before any call).
func (c *Comm) Epoch() int { return int(c.world.epochs[c.rank].Load()) }

// enter is the fault gate every collective passes through: it
// aborts the rank if the world is poisoned, then consults the fault plan
// for an injected crash or hang at this (rank, epoch, op) point.
func (c *Comm) enter(op string) {
	w := c.world
	w.checkAbort()
	if w.fstate == nil {
		return
	}
	iter := c.Epoch()
	if w.fstate.crashNow(c.rank, iter, op) {
		panic(&ErrRankFailed{Rank: c.rank, Op: op, Iter: iter, Cause: ErrInjectedCrash})
	}
	if w.fstate.hangNow(c.rank, iter, op) {
		// Hang until the run aborts (typically because the watchdog declares
		// this rank dead), then die with whatever failure was declared.
		<-w.abortCh
		rf := w.abort.Load()
		if rf != nil && rf.Rank == c.rank {
			panic(rf)
		}
		panic(abortPanic{rf})
	}
}
