package paralagg_test

// Overload benchmarks: the 4-rank SSSP smoke over a real loopback TCP gang
// at three budget levels — a gang under a memory budget is not among the
// committed benchmark's workloads (benchmark/):
//
//	go test -run '^$' -bench 'OverloadSSSPGang4' -benchmem -benchtime 10x .
//
// Each level reports ns/op plus the overload counters as custom metrics:
//
//   - peak-B/op:  the world's accounted memory high-water mark (compute
//     structures + transport outbox + injected phantom charge),
//   - stalls/op:  credit-based flow-control stalls — Sends that found the
//     per-peer window exhausted and blocked for acks,
//   - shed/op:    soft-pressure responses (world-wide scratch sheds).
//
// The levels: `unlimited` prices pure accounting (a budget too large to
// pressure), `ample` a real but comfortable budget (16× the measured peak),
// and `soft` the same budget with a phantom charge pinning the gang in the
// soft band from iteration 3 on — so the shed-every-iteration ladder
// response is on the timed path. The gang runs with a deliberately small
// send window so flow control, not the kernel's socket buffers, paces the
// exchange.

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
	"paralagg/internal/transport/tcp"
)

const (
	overloadRanks = 4
	// overloadWindow is small enough that flow control, not the kernel's
	// socket buffers, paces the exchange. The receivers keep up, so with an
	// ack every quarter window stalls/op reads near zero here; the
	// slow-consumer chaos differential is where stalls are required.
	overloadWindow = 4
	// overloadPressureIter matches the chaos suite: every scenario's
	// fixpoint runs clearly past it.
	overloadPressureIter = 3
)

// overloadGraph is sized so the fixpoint runs well past the pressure
// iteration but one gang run stays in the low milliseconds.
func overloadGraph() *graph.Graph {
	return graph.Grid("overload-grid", 12, 12, 8, 11)
}

// overloadCounter tallies pressure-ladder responses across all ranks.
type overloadCounter struct {
	soft, hard atomic.Int64
}

func (o *overloadCounter) OnEvent(e *paralagg.Event) {
	if e.Kind == paralagg.EventMemPressure {
		if e.Name == "hard" {
			o.hard.Add(1)
		} else {
			o.soft.Add(1)
		}
	}
}

// runOverloadGang runs one 4-rank SSSP fixpoint over a fresh loopback TCP
// gang with the given budget and optional phantom charge, returning rank 0's
// Result and the gang's aggregated transport counters.
func runOverloadGang(b *testing.B, g *graph.Graph, budget, phantom int64, obs paralagg.Observer) (*paralagg.Result, paralagg.NetStats) {
	b.Helper()
	addrs := make([]string, overloadRanks)
	lns := make([]net.Listener, overloadRanks)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	trs := make([]*tcp.Transport, overloadRanks)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{
			Rank: i, Peers: addrs, Listener: lns[i],
			// A fast beacon keeps failure detection prompt on these
			// millisecond runs while the 2s peer timeout keeps the liveness
			// window scheduler-safe; credit refills do not wait for it
			// (receivers ack every quarter window).
			HeartbeatEvery:   5 * time.Millisecond,
			PeerTimeout:      2 * time.Second,
			ConnectTimeout:   10 * time.Second,
			Seed:             42,
			SendWindow:       overloadWindow,
			SendStallTimeout: 30 * time.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		trs[i] = tr
	}
	cfg := paralagg.Config{
		Subs:      2,
		MemBudget: budget,
		Observer:  obs,
		Watchdog:  10 * time.Second,
	}
	if phantom > 0 {
		cfg.Faults = &paralagg.FaultPlan{
			Seed: 1,
			MemPressures: []paralagg.MemPressure{
				{Rank: overloadRanks - 1, Iter: overloadPressureIter, Bytes: phantom},
			},
		}
	}
	results := make([]*paralagg.Result, overloadRanks)
	errs := make([]error, overloadRanks)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *tcp.Transport) {
			defer wg.Done()
			c := cfg
			c.Transport = tr
			results[i], errs[i] = paralagg.Exec(queries.SSSPProgram(), c, func(rk *paralagg.Rank) error {
				return queries.LoadSSSP(rk, g, []uint64{0, 5})
			}, nil)
		}(i, tr)
	}
	wg.Wait()
	var net paralagg.NetStats
	for _, tr := range trs {
		net = net.Add(tr.Net())
		tr.Close()
	}
	for rank, err := range errs {
		if err != nil {
			b.Fatalf("gang rank %d: %v", rank, err)
		}
	}
	return results[0], net
}

func benchOverload(b *testing.B, level string) {
	g := overloadGraph()
	// One probe run with an unlimited budget fixes the workload's real
	// accounted peak; the budgeted levels derive from it.
	probe, _ := runOverloadGang(b, g, 1<<40, 0, nil)
	if probe.MemPeakBytes <= 0 {
		b.Fatal("budget probe recorded no accounted memory")
	}
	if probe.Iterations <= overloadPressureIter {
		b.Fatalf("fixpoint ran only %d iterations, pressure at %d would never fire",
			probe.Iterations, overloadPressureIter)
	}
	var budget, phantom int64
	switch level {
	case "unlimited":
		budget = 1 << 40
	case "ample":
		budget = 16 * probe.MemPeakBytes
	case "soft":
		// The phantom alone (14/16 = 87.5% of budget) pins the gang in the
		// soft band; real usage adds at most ~1/16 more, never reaching hard.
		budget = 16 * probe.MemPeakBytes
		phantom = budget / 16 * 14
	default:
		b.Fatalf("unknown overload level %q", level)
	}
	obs := &overloadCounter{}
	var peakBytes, stalls int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, net := runOverloadGang(b, g, budget, phantom, obs)
		if res.MemPeakBytes > peakBytes {
			peakBytes = res.MemPeakBytes
		}
		stalls += net.ThrottleStalls
	}
	b.StopTimer()
	if hard := obs.hard.Load(); hard != 0 {
		b.Fatalf("%d hard-pressure responses fired — the %q level must stay under budget", hard, level)
	}
	if phantom > 0 && obs.soft.Load() == 0 {
		b.Fatal("soft-band phantom charge raised no shed response")
	}
	b.ReportMetric(float64(peakBytes), "peak-B/op")
	b.ReportMetric(float64(stalls)/float64(b.N), "stalls/op")
	b.ReportMetric(float64(obs.soft.Load())/float64(b.N), "shed/op")
}

func BenchmarkOverloadSSSPGang4Unlimited(b *testing.B) { benchOverload(b, "unlimited") }
func BenchmarkOverloadSSSPGang4Ample(b *testing.B)     { benchOverload(b, "ample") }
func BenchmarkOverloadSSSPGang4Soft(b *testing.B)      { benchOverload(b, "soft") }
