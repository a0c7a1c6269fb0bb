package chaos

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"paralagg"
	"paralagg/internal/transport/tcp"
)

// Network chaos: the same differential discipline as the crash/restart
// suite, but over the real TCP transport. A gang of single-rank worlds —
// one per "process", connected by loopback sockets — runs each scenario
// under injected wire faults. Faults the transport repairs transparently
// (slow links, connection resets, corrupted frames) must leave the answer
// bit-identical to the in-process run; faults it cannot repair (network
// partitions, killed processes) must surface as structured rank failures on
// every survivor, and a supervised restart from the shared checkpoints must
// still land on the fault-free answer.

// gang builds n connected TCP endpoints on loopback, every one carrying the
// same deterministic wire-fault plan. customize hooks, when given, adjust
// each endpoint's config before it is opened (the overload suite shrinks
// the flow-control window this way).
func gang(n int, faults *tcp.NetFaultPlan, customize ...func(*tcp.Config)) ([]*tcp.Transport, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*tcp.Transport, n)
	for i := range trs {
		cfg := tcp.Config{
			Rank: i, Peers: addrs, Listener: lns[i],
			// Fast detection keeps the suite quick; the 100ms window (four
			// beacons) still dwarfs loopback latency.
			HeartbeatEvery: 25 * time.Millisecond,
			PeerTimeout:    100 * time.Millisecond,
			Seed:           42,
			Faults:         faults,
		}
		for _, c := range customize {
			c(&cfg)
		}
		tr, err := tcp.New(cfg)
		if err != nil {
			return nil, err
		}
		trs[i] = tr
	}
	return trs, nil
}

// runGang executes sc once per gang member (each member is one rank of a
// distributed world) and returns the per-rank errors. The member hosting
// rank 0 records fingerprints through fps; base configures everything
// except the transport.
func runGang(sc Scenario, schedule string, trs []*tcp.Transport, base paralagg.Config, fps *map[string]Fingerprint) []error {
	return lockstep(len(trs), func(i int) error {
		cfg := base
		cfg.Transport = trs[i]
		_, err := exec(schedule, sc.Prog(), cfg, sc.Load, collect(sc.Rels, fps))
		return err
	})
}

// lockstep makes call i for every gang member i concurrently — SPMD calls
// block until every member makes its own — and returns each call's error.
func lockstep(n int, call func(i int) error) []error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = call(i)
		}()
	}
	wg.Wait()
	return errs
}

// TCPDifferential runs sc in-process (the reference answer), then over a
// TCP gang with the given wire faults. The faults must be of the kinds the
// transport repairs transparently: the gang run must succeed, produce
// bit-identical relations, and show in its counters that the faults bit.
func TCPDifferential(sc Scenario, schedule string, ranks int, faults *tcp.NetFaultPlan) (*Outcome, error) {
	o, _, err := reference(sc, schedule, paralagg.Config{Ranks: ranks}, 0)
	if err != nil {
		return nil, err
	}
	trs, err := gang(ranks, faults)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: building TCP gang: %w", sc.Name, err)
	}
	errs := runGang(sc, schedule, trs, paralagg.Config{Subs: sc.Subs}, &o.Recovered)
	var stats paralagg.NetStats
	for _, tr := range trs {
		stats = stats.Add(tr.Net())
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("chaos %s: TCP rank %d failed under repairable faults: %w", sc.Name, rank, err)
		}
	}
	if err := VerifyNetStats(stats); err != nil {
		return nil, fmt.Errorf("chaos %s: fault plan did not exercise recovery: %w (stats %+v)", sc.Name, err, stats)
	}
	return o.verdict(sc.Name, "reset+corruption+slowlink repaired, bit-identical (reconnects=%d retransmits=%d crcErrors=%d)",
		stats.Reconnects, stats.Retransmits, stats.CRCErrors)
}

// TCPPartition runs sc over a TCP gang that partitions rank 0 away from
// everyone after the gang has exchanged some traffic. The partition is not
// repairable: every rank must surface a structured ErrRankFailed wrapping
// ErrPeerUnreachable instead of wedging.
func TCPPartition(sc Scenario, schedule string, ranks int) (*Outcome, error) {
	others := make([]int, 0, ranks-1)
	for r := 1; r < ranks; r++ {
		others = append(others, r)
	}
	faults := &tcp.NetFaultPlan{
		Partitions: []tcp.Partition{{A: []int{0}, B: others, AfterSends: 40}},
	}
	trs, err := gang(ranks, faults)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: building TCP gang: %w", sc.Name, err)
	}
	var fps map[string]Fingerprint
	errs := runGang(sc, schedule, trs, paralagg.Config{Subs: sc.Subs, Watchdog: 10 * time.Second}, &fps)
	for _, tr := range trs {
		tr.Kill() // flushing into a partition would only wait out the timeout
	}
	for rank, err := range errs {
		if err == nil {
			return nil, fmt.Errorf("chaos %s: rank %d finished across a network partition", sc.Name, rank)
		}
		rf, ok := paralagg.AsRankFailure(err)
		if !ok {
			return nil, fmt.Errorf("chaos %s: rank %d partition error is unstructured: %w", sc.Name, rank, err)
		}
		if !errors.Is(rf, paralagg.ErrPeerUnreachable) && !errors.Is(rf, paralagg.ErrRecvTimeout) {
			return nil, fmt.Errorf("chaos %s: rank %d failure %v does not name the partition", sc.Name, rank, rf)
		}
	}
	return &Outcome{Evidence: "every rank surfaced a structured unreachable-peer failure"}, nil
}

// TCPCorruptionDetection runs sc over a TCP gang with integrity checking on
// and one stored tuple of the scenario's computed relation bit-flipped on
// rank 0 at the top of iteration corruptIter. The state digests
// ride the convergence Allreduce over the real wire, so every member — not
// just the corrupted one — must abort with a structured ErrStateDiverged
// naming that same iteration.
func TCPCorruptionDetection(sc Scenario, schedule string, ranks, corruptIter int) (*Outcome, error) {
	trs, err := gang(ranks, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos %s: building TCP gang: %w", sc.Name, err)
	}
	rel := sc.Rels[len(sc.Rels)-1]
	base := paralagg.Config{
		Subs:      sc.Subs,
		Integrity: true,
		Watchdog:  10 * time.Second,
		Faults: &paralagg.FaultPlan{
			Seed:          1,
			StateCorrupts: []paralagg.StateCorrupt{{Rank: 0, Iter: corruptIter, Rel: rel}},
		},
	}
	var fps map[string]Fingerprint
	errs := runGang(sc, schedule, trs, base, &fps)
	for _, tr := range trs {
		tr.Kill() // every member aborted; flushing would only wait out timeouts
	}
	for rank, err := range errs {
		if err == nil {
			return nil, fmt.Errorf("chaos %s: TCP rank %d finished despite injected state corruption", sc.Name, rank)
		}
		div, ok := paralagg.AsStateDivergence(err)
		if !ok {
			return nil, fmt.Errorf("chaos %s: TCP rank %d failure carries no ErrStateDiverged: %w", sc.Name, rank, err)
		}
		if div.Iter < corruptIter {
			return nil, fmt.Errorf("chaos %s: TCP rank %d detected divergence at iter %d, before the corruption at %d",
				sc.Name, rank, div.Iter, corruptIter)
		}
	}
	return &Outcome{Evidence: "every rank agreed on the divergence over real sockets"}, nil
}

// RepairableFaults is the standard wire-fault plan of the network chaos
// suite: a reset and a corrupted frame early in the run plus a slow link
// throughout — every one repaired by the transport below the runtime's
// waterline.
func RepairableFaults(ranks int) *tcp.NetFaultPlan {
	plan := &tcp.NetFaultPlan{
		SlowLinks: []tcp.SlowLink{{From: 0, To: ranks - 1, Delay: 2 * time.Millisecond}},
		Resets:    []tcp.Reset{{From: ranks - 1, To: 0, AfterSends: 4}},
		CorruptFrames: []tcp.CorruptFrame{
			{From: 1 % ranks, To: 0, AfterSends: 6},
		},
	}
	return plan
}

// VerifyNetStats checks that the injected repairable faults actually
// exercised the recovery machinery (otherwise the differential proves
// nothing).
func VerifyNetStats(n paralagg.NetStats) error {
	if n.Reconnects == 0 {
		return errors.New("no reconnects recorded: the injected reset never bit")
	}
	if n.CRCErrors == 0 {
		return errors.New("no CRC rejections recorded: the injected corruption never bit")
	}
	return nil
}
