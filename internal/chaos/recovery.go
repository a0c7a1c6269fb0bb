package chaos

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"paralagg"
	"paralagg/internal/supervisor"
	"paralagg/internal/transport/tcp"
)

// Hot-replacement chaos: the partial-restart recovery loop over real
// sockets. Where TCPKillRecovery tears the whole gang down and rebuilds it,
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

// RecoveryReport is the outcome of one timed recovery differential.
type RecoveryReport struct {
	Clean     map[string]Fingerprint
	Recovered map[string]Fingerprint
	// Repairs counts hot replacements (TCPHotReplace) or supervised full
	// restarts (TCPFullRestart) — the differential demands exactly one.
	Repairs int
	// MTTR is the wall clock from the victim's death to the whole
	// computation completing — the repair cost the two strategies compete on.
	MTTR time.Duration
}

// Identical reports whether the recovered run reproduced the fault-free
// relation contents exactly.
func (r *RecoveryReport) Identical() bool {
	if len(r.Clean) != len(r.Recovered) {
		return false
	}
	for rel, fp := range r.Clean {
		if r.Recovered[rel] != fp {
			return false
		}
	}
	return true
}

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
// bit-identical answer.
func TCPHotReplace(sc Scenario, ranks, every, crashIter int) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	clean, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs},
		sc.Load, collect(sc.Rels, &rep.Clean))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: in-process reference run failed: %w", sc.Name, err)
	}
	if clean.Iterations <= crashIter {
		return nil, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, crash at %d would never fire",
			sc.Name, clean.Iterations, crashIter)
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
			HeartbeatMisses: 4,
			ConnectTimeout:  10 * time.Second,
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
		// the adaptive deadline well above PeerTimeout to fix the race.
		AdaptiveWatchdog: true,
		WatchdogFloor:    time.Second,
		WatchdogCeil:     10 * time.Second,
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
			_, err := exec(sc.Prog(), cfg, sc.Load, collect(sc.Rels, &fps))
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
	rep.Repairs = grep.Replacements
	rep.Recovered = fps
	rep.MTTR = done.Sub(time.Unix(0, crashed.Load()))
	return rep, nil
}

// TCPFullRestart is the timed control arm: the same crash repaired by the
// whole-world restart path (every survivor torn down, fresh sockets, every
// rank re-executing from the shared checkpoints). Its MTTR is the baseline
// hot replacement must beat.
func TCPFullRestart(sc Scenario, ranks, every, crashIter int) (*RecoveryReport, error) {
	rep := &RecoveryReport{}
	clean, err := exec(sc.Prog(), paralagg.Config{Ranks: ranks, Subs: sc.Subs},
		sc.Load, collect(sc.Rels, &rep.Clean))
	if err != nil {
		return nil, fmt.Errorf("chaos %s: in-process reference run failed: %w", sc.Name, err)
	}
	if clean.Iterations <= crashIter {
		return nil, fmt.Errorf("chaos %s: fixpoint ran only %d iterations, crash at %d would never fire",
			sc.Name, clean.Iterations, crashIter)
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
			Subs:             sc.Subs,
			CheckpointEvery:  every,
			Checkpoints:      sink,
			AdaptiveWatchdog: true,
			WatchdogCeil:     10 * time.Second,
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
		errs := make([]error, ranks)
		done := make(chan int, ranks)
		for i, tr := range trs {
			go func(i int, tr *tcp.Transport) {
				cfg := base
				cfg.Transport = tr
				_, errs[i] = exec(sc.Prog(), cfg, sc.Load, collect(sc.Rels, &fps))
				if i == victim && errs[i] != nil && attempt == 0 {
					tr.Kill() // the process is gone; so is its endpoint
					crashed.CompareAndSwap(0, time.Now().UnixNano())
				}
				done <- i
			}(i, tr)
		}
		for range trs {
			<-done
		}
		for i, tr := range trs {
			if !(i == victim && attempt == 0) {
				tr.Close()
			}
		}
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		rep.Recovered = fps
		return nil
	})
	doneAt := time.Now()
	if err != nil {
		return nil, fmt.Errorf("chaos %s: supervised TCP full restart failed: %w", sc.Name, err)
	}
	if srep.RecoveryAttempts != 1 {
		return nil, fmt.Errorf("chaos %s: %d full restarts, want exactly 1", sc.Name, srep.RecoveryAttempts)
	}
	rep.Repairs = srep.RecoveryAttempts
	rep.MTTR = doneAt.Sub(time.Unix(0, crashed.Load()))
	return rep, nil
}
