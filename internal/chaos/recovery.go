package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"paralagg"
	"paralagg/internal/supervisor"
	"paralagg/internal/transport/tcp"
)

// Hot-replacement chaos: the partial-restart recovery loop over real
// sockets. Where TCPFullRestart tears the whole gang down and rebuilds it,
// TCPHotReplace keeps the survivors alive: the victim's process dies
// mid-fixpoint, the survivors park at the transport's recovery barrier with
// their in-memory state intact, a replacement process is spawned at the
// next membership epoch, restores only the victim's shard from the shared
// checkpoints, and replays forward off the survivors' retained send
// histories until the gang is in lockstep again. The recovered answer must
// be bit-identical to the in-process fault-free run — the same differential
// bar the full-restart path clears — and the repair must be cheaper, which
// is what the root RecoveryHotReplace/RecoveryFullRestart benchmarks report.

// recoveryHeartbeat / recoveryPeerTimeout tune the failure detector for the
// suite: detection must land well inside the runtime's receive watchdog so
// the survivors park (recvVia re-arms while the world is recovering)
// instead of timing out, and the timeout must still dwarf loopback jitter.
const (
	recoveryHeartbeat   = 25 * time.Millisecond
	recoveryPeerTimeout = 150 * time.Millisecond
	// recoveryReplaceTimeout bounds how long survivors hold the barrier for
	// a replacement before declaring the rank failed outright. Generous: a
	// spawn here is a goroutine, not a scheduler round-trip, but a wedged
	// replacement must still turn terminal before the suite's own deadline.
	recoveryReplaceTimeout = 20 * time.Second
)

// goMember adapts one rank's goroutine to the supervisor's gang Member.
type goMember struct {
	done chan error
	kill func()
}

func (m *goMember) Wait() error { return <-m.done }
func (m *goMember) Kill()       { m.kill() }

// TCPHotReplace runs sc in-process (the reference answer), then over a TCP
// gang with hot replacement enabled and rank (ranks-1) crashed as it enters
// iteration crashIter's tuple exchange. The gang must repair itself with
// exactly one hot replacement — survivors never torn down — and land on the
// bit-identical answer; Outcome.MTTR times the repair.
func TCPHotReplace(sc Scenario, schedule string, ranks, every, crashIter int) (*Outcome, error) {
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, crashIter)
	if err != nil {
		return nil, err
	}

	victim := ranks - 1
	sink := paralagg.NewMemoryCheckpointSink()

	// The peer address list is fixed for the gang's whole lifetime: a
	// replacement rebinds the dead rank's port so the survivors' redial
	// loops and the shared Peers slice stay valid across the epoch bump.
	addrs := make([]string, ranks)
	lns := make([]net.Listener, ranks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	newTransport := func(rank int, epoch int, ln net.Listener, sendSeqs, recvSeqs []uint64) (*tcp.Transport, error) {
		return tcp.New(tcp.Config{
			Rank: rank, Peers: addrs, Listener: ln,
			HeartbeatEvery:  recoveryHeartbeat,
			Seed:            42,
			PeerTimeout:     recoveryPeerTimeout,
			ReplaceTimeout:  recoveryReplaceTimeout,
			Epoch:           uint64(epoch),
			InitialSendSeqs: sendSeqs,
			InitialRecvSeqs: recvSeqs,
		})
	}

	base := paralagg.Config{
		Subs:            sc.Subs,
		CheckpointEvery: every,
		Checkpoints:     sink,
		// The recovery park only engages if the transport's failure detector
		// (PeerTimeout) declares the dead rank before a survivor's receive
		// watchdog expires: a survivor blocked on a rank that is itself
		// blocked on the victim must still be parked, not timed out. Floor
		// the deadline well above PeerTimeout to fix the race.
		Watchdog:      10 * time.Second,
		WatchdogFloor: time.Second,
	}
	var (
		fps     map[string]Fingerprint
		crashed atomic.Int64 // unix nanos of the victim's death
	)
	spawn := func(rank, epoch int) (supervisor.Member, error) {
		var tr *tcp.Transport
		if epoch == 0 {
			var err error
			tr, err = newTransport(rank, 0, lns[rank], nil, nil)
			if err != nil {
				return nil, err
			}
		} else {
			// The dead transport's Kill released the port; rebind it. The OS
			// may briefly hold the address, so retry within the replace window.
			var ln net.Listener
			var err error
			for try := 0; ; try++ {
				if ln, err = net.Listen("tcp", addrs[rank]); err == nil {
					break
				}
				if try >= 40 {
					return nil, fmt.Errorf("rebinding %s for rank %d's replacement: %w", addrs[rank], rank, err)
				}
				time.Sleep(25 * time.Millisecond)
			}
			// Restore is rank-local: only the victim's shard is read back,
			// and its wire-mark vectors seed the replacement's frame counters
			// so the survivors' dedup/replay machinery lines up.
			send, recv, err := paralagg.RejoinSeeds(sink, rank)
			if err != nil {
				ln.Close()
				return nil, err
			}
			if tr, err = newTransport(rank, epoch, ln, send, recv); err != nil {
				ln.Close()
				return nil, err
			}
		}
		m := &goMember{done: make(chan error, 1), kill: tr.Kill}
		go func() {
			cfg := base
			cfg.Transport = tr
			cfg.Rejoin = epoch > 0
			if rank == victim && epoch == 0 {
				// The victim crashes as it enters iteration crashIter's tuple
				// exchange; the replacement (epoch > 0) runs fault-free or it
				// would replay the same crash forever.
				cfg.Faults = &paralagg.FaultPlan{
					Seed:    1,
					Crashes: []paralagg.Crash{{Rank: victim, Iter: crashIter, Op: "alltoallv"}},
				}
			}
			_, err := exec(schedule, sc.Prog(), cfg, sc.Load, collect(sc.Rels, &fps))
			if err != nil {
				tr.Kill() // the process is gone; so is its endpoint
				crashed.CompareAndSwap(0, time.Now().UnixNano())
			} else {
				tr.Close()
			}
			m.done <- err
		}()
		return m, nil
	}
	grep, err := supervisor.RunGang(supervisor.GangConfig{Ranks: ranks, Spawn: spawn})
	done := time.Now()
	if err != nil {
		return nil, fmt.Errorf("chaos %s: hot-replace gang failed: %w", sc.Name, err)
	}
	if grep.Replacements != 1 {
		return nil, fmt.Errorf("chaos %s: %d hot replacements, want exactly 1 (replaced %v)",
			sc.Name, grep.Replacements, grep.Replaced)
	}
	o.Recovered = fps
	return o.timed(sc.Name, done.Sub(time.Unix(0, crashed.Load())),
		"rank %d killed mid-exchange, 1 replacement, bit-identical", victim)
}

// timed is verdict for the two timed recovery arms: the repair must have
// taken measurable time, which the evidence line reports.
func (o *Outcome) timed(what string, mttr time.Duration, format string, args ...any) (*Outcome, error) {
	if mttr <= 0 {
		return nil, fmt.Errorf("chaos %s: MTTR = %v, want > 0", what, mttr)
	}
	o.MTTR = mttr
	return o.verdict(what, format+" (MTTR %.1fms)", append(args, float64(mttr.Microseconds())/1e3)...)
}

// TCPFullRestart is the full robustness loop over real sockets, and the
// timed control arm of hot replacement: sc runs on a TCP gang with
// checkpointing on; rank (ranks-1)'s process is killed mid-fixpoint (its
// rank dies AND its wire goes silent, so the survivors' failure detectors
// must do the declaring); every survivor observes a structured failure; and
// the supervisor rebuilds the whole gang — every survivor torn down, fresh
// sockets, every rank re-executing from the shared checkpoints. Exactly one
// restart must land on the bit-identical answer; its MTTR is the baseline
// hot replacement must beat.
func TCPFullRestart(sc Scenario, schedule string, ranks, every, crashIter int) (*Outcome, error) {
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, crashIter)
	if err != nil {
		return nil, err
	}

	victim := ranks - 1
	sink := paralagg.NewMemoryCheckpointSink()
	var crashed atomic.Int64
	srep, err := supervisor.Run(ranks, supervisor.Config{
		MaxRestarts: 2,
		Backoff:     time.Millisecond,
	}, func(attempt, _ int, resume bool) error {
		trs, err := gang(ranks, nil)
		if err != nil {
			return err
		}
		base := paralagg.Config{
			Subs:            sc.Subs,
			CheckpointEvery: every,
			Checkpoints:     sink,
			Watchdog:        10 * time.Second,
		}
		if resume {
			if _, ok, err := sink.LatestValid(); ok && err == nil {
				base.Resume = true
			}
		}
		if attempt == 0 {
			base.Faults = &paralagg.FaultPlan{
				Seed:    1,
				Crashes: []paralagg.Crash{{Rank: victim, Iter: crashIter, Op: "alltoallv"}},
			}
		}
		var fps map[string]Fingerprint
		errs := lockstep(ranks, func(i int) error {
			cfg := base
			cfg.Transport = trs[i]
			_, err := exec(schedule, sc.Prog(), cfg, sc.Load, collect(sc.Rels, &fps))
			if i == victim && err != nil && attempt == 0 {
				trs[i].Kill() // the process is gone; so is its endpoint
				crashed.CompareAndSwap(0, time.Now().UnixNano())
			}
			return err
		})
		for i, tr := range trs {
			if !(i == victim && attempt == 0) {
				tr.Close()
			}
		}
		if err := errors.Join(errs...); err != nil {
			return err
		}
		o.Recovered = fps
		return nil
	})
	doneAt := time.Now()
	if err != nil {
		return nil, fmt.Errorf("chaos %s: supervised TCP full restart failed: %w", sc.Name, err)
	}
	if srep.RecoveryAttempts != 1 {
		return nil, fmt.Errorf("chaos %s: %d full restarts, want exactly 1", sc.Name, srep.RecoveryAttempts)
	}
	return o.timed(sc.Name, doneAt.Sub(time.Unix(0, crashed.Load())),
		"process killed mid-fixpoint, whole gang restarted from shared checkpoints, bit-identical")
}

// hotReplaceBeatsFullRestart repairs the same crash both ways and demands
// the reason hot replacement exists: keeping the survivors alive must cost
// strictly less wall clock than tearing the whole world down.
func hotReplaceBeatsFullRestart(sc Scenario, schedule string, ranks, every, crashIter int) (*Outcome, error) {
	hot, err := TCPHotReplace(sc, schedule, ranks, every, crashIter)
	if err != nil {
		return nil, err
	}
	full, err := TCPFullRestart(sc, schedule, ranks, every, crashIter)
	if err != nil {
		return nil, err
	}
	if hot.MTTR >= full.MTTR {
		return nil, fmt.Errorf("chaos %s: hot replacement (%v) did not beat the full restart (%v)", sc.Name, hot.MTTR, full.MTTR)
	}
	hot.Evidence = fmt.Sprintf("hot replacement %v vs full restart %v (%.0fx cheaper)",
		hot.MTTR, full.MTTR, float64(full.MTTR)/float64(hot.MTTR))
	return hot, nil
}

// crossSchedule hot-replaces under the given schedule and compares the
// recovered answer against an in-process run under the OTHER routing shape
// (tree for a flat gang, flat for anything else): one bar proving both that
// recovery works under that routing and that the routing shape never
// changes the answer.
func crossSchedule(sc Scenario, schedule string, ranks, every, crashIter int) (*Outcome, error) {
	other := "flat"
	if schedule == "" || schedule == "flat" {
		other = "tree"
	}
	o, err := TCPHotReplace(sc, schedule, ranks, every, crashIter)
	if err != nil {
		return nil, err
	}
	ref, _, err := reference(sc, other, paralagg.Config{Ranks: ranks}, crashIter)
	if err != nil {
		return nil, err
	}
	o.Clean = ref.Clean
	return o.verdict(sc.Name, "hot-replaced gang matches the %s-scheduled in-process answer", other)
}
