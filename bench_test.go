package paralagg_test

// One benchmark per table and figure of the paper's evaluation. Each runs a
// representative point of the corresponding experiment and reports the
// simulated parallel time as sim-ms/op next to the usual wall-clock ns/op;
// `go test -bench=. -benchmem` regenerates the full set. The wider sweeps
// behind each figure live in cmd/experiments.

import (
	"syscall"
	"testing"
	"time"

	"paralagg"
	"paralagg/internal/baseline"
	"paralagg/internal/graph"
	"paralagg/internal/metrics"
	"paralagg/internal/queries"
)

func loadGraph(b *testing.B, name string) *graph.Graph {
	b.Helper()
	g, err := graph.Load(name)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func reportSim(b *testing.B, sim float64) {
	b.ReportMetric(sim*1e3, "sim-ms/op")
}

// --- Table I: single-node comparison ---

func benchTable1(b *testing.B, tool, query string) {
	g := loadGraph(b, "livejournal-sim")
	sources := g.Sources(5, 3)
	const ranks = 16
	var sim float64
	for i := 0; i < b.N; i++ {
		switch tool {
		case "paralagg":
			cfg := paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic}
			var res *paralagg.Result
			var err error
			if query == "sssp" {
				res, err = queries.RunSSSP(g, sources, cfg)
			} else {
				res, err = queries.RunCC(g, cfg)
			}
			if err != nil {
				b.Fatal(err)
			}
			sim = res.SimSeconds
		default:
			sys := baseline.RaSQLSim
			if tool == "socialite" {
				sys = baseline.SociaLiteSim
			}
			var res *baseline.Result
			var err error
			if query == "sssp" {
				res, err = baseline.RunSSSP(sys, g, sources, ranks)
			} else {
				res, err = baseline.RunCC(sys, g, ranks)
			}
			if err != nil {
				b.Fatal(err)
			}
			sim = res.SimSeconds
		}
	}
	reportSim(b, sim)
}

func BenchmarkTable1SSSPParalagg(b *testing.B)  { benchTable1(b, "paralagg", "sssp") }
func BenchmarkTable1SSSPRaSQLSim(b *testing.B)  { benchTable1(b, "rasql", "sssp") }
func BenchmarkTable1SSSPSociaLite(b *testing.B) { benchTable1(b, "socialite", "sssp") }
func BenchmarkTable1CCParalagg(b *testing.B)    { benchTable1(b, "paralagg", "cc") }
func BenchmarkTable1CCRaSQLSim(b *testing.B)    { benchTable1(b, "rasql", "cc") }
func BenchmarkTable1CCSociaLite(b *testing.B)   { benchTable1(b, "socialite", "cc") }

// --- Table II: medium-scale graphs ---

func benchTable2(b *testing.B, gname, query string, ranks int) {
	g := loadGraph(b, gname)
	sources := g.Sources(10, 4)
	cfg := paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic}
	var sim float64
	for i := 0; i < b.N; i++ {
		var res *paralagg.Result
		var err error
		if query == "sssp" {
			res, err = queries.RunSSSP(g, sources, cfg)
		} else {
			res, err = queries.RunCC(g, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		sim = res.SimSeconds
	}
	reportSim(b, sim)
}

func BenchmarkTable2SSSPFlickr16(b *testing.B)  { benchTable2(b, "flickr-sim", "sssp", 16) }
func BenchmarkTable2SSSPFlickr32(b *testing.B)  { benchTable2(b, "flickr-sim", "sssp", 32) }
func BenchmarkTable2CCFlickr16(b *testing.B)    { benchTable2(b, "flickr-sim", "cc", 16) }
func BenchmarkTable2CCFlickr32(b *testing.B)    { benchTable2(b, "flickr-sim", "cc", 32) }
func BenchmarkTable2SSSPWikiSim16(b *testing.B) { benchTable2(b, "wiki-sim", "sssp", 16) }
func BenchmarkTable2CCWikiSim16(b *testing.B)   { benchTable2(b, "wiki-sim", "cc", 16) }

// --- Figure 2: baseline vs optimized SSSP ---

func benchFig2(b *testing.B, cfg paralagg.Config) {
	g := loadGraph(b, "twitter-sim")
	sources := g.Sources(5, 1)
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := queries.RunSSSP(g, sources, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.SimSeconds
	}
	reportSim(b, sim)
}

func BenchmarkFig2Baseline(b *testing.B) {
	benchFig2(b, paralagg.Config{Ranks: 32, Subs: 1, Plan: paralagg.StaticRight})
}

func BenchmarkFig2Optimized(b *testing.B) {
	benchFig2(b, paralagg.Config{Ranks: 32, Subs: 8, Plan: paralagg.Dynamic})
}

// --- Figure 3: tuple distribution ---

func BenchmarkFig3Distribution(b *testing.B) {
	g := loadGraph(b, "twitter-sim")
	var ratio float64
	for i := 0; i < b.N; i++ {
		p := paralagg.NewProgram()
		if err := p.DeclareSet("edge", 3, 1); err != nil {
			b.Fatal(err)
		}
		var counts []int
		_, err := paralagg.Exec(p, paralagg.Config{Ranks: 64, Subs: 8},
			func(rk *paralagg.Rank) error {
				return rk.LoadShare("edge", len(g.Edges), func(j int, emit func(paralagg.Tuple)) {
					e := g.Edges[j]
					emit(paralagg.Tuple{e.U, e.V, e.W})
				})
			},
			func(rk *paralagg.Rank) error {
				qr, err := rk.Query(paralagg.QuerySpec{Relation: "edge", CountOnly: true, PerRank: true})
				if err != nil {
					return err
				}
				if rk.ID() == 0 {
					counts = qr.PerRank
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
		ratio = metrics.ImbalanceRatio(counts)
	}
	b.ReportMetric(ratio, "max/min")
}

// --- Figure 4: CC local join with and without sub-buckets ---

func benchFig4(b *testing.B, subs int) {
	g := loadGraph(b, "twitter-sim")
	var joinSec float64
	for i := 0; i < b.N; i++ {
		res, err := queries.RunCC(g, paralagg.Config{Ranks: 64, Subs: subs, Plan: paralagg.Dynamic})
		if err != nil {
			b.Fatal(err)
		}
		joinSec = res.PhaseSeconds["local-join"]
	}
	b.ReportMetric(joinSec*1e3, "join-sim-ms/op")
}

func BenchmarkFig4CCOneSubBucket(b *testing.B)    { benchFig4(b, 1) }
func BenchmarkFig4CCEightSubBuckets(b *testing.B) { benchFig4(b, 8) }

// --- Figures 5 and 6: strong scaling points ---

func benchScaling(b *testing.B, query string, ranks int) {
	g := loadGraph(b, "twitter-sim")
	sources := g.Sources(10, 2)
	cfg := paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic}
	var sim float64
	for i := 0; i < b.N; i++ {
		var res *paralagg.Result
		var err error
		if query == "sssp" {
			res, err = queries.RunSSSP(g, sources, cfg)
		} else {
			res, err = queries.RunCC(g, cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		sim = res.SimSeconds
	}
	reportSim(b, sim)
}

func BenchmarkFig5SSSPRanks16(b *testing.B)  { benchScaling(b, "sssp", 16) }
func BenchmarkFig5SSSPRanks64(b *testing.B)  { benchScaling(b, "sssp", 64) }
func BenchmarkFig5SSSPRanks128(b *testing.B) { benchScaling(b, "sssp", 128) }
func BenchmarkFig6CCRanks16(b *testing.B)    { benchScaling(b, "cc", 16) }
func BenchmarkFig6CCRanks64(b *testing.B)    { benchScaling(b, "cc", 64) }
func BenchmarkFig6CCRanks128(b *testing.B)   { benchScaling(b, "cc", 128) }

// --- Fixed cost of an iteration ---

// BenchmarkSSSPChain is the sssp-chain workload's shape: SSSP from one
// corner of a 4×600 grid on 2 ranks, ~700 near-empty iterations, so the
// fixed cost of an iteration (a wait on the mailbox among it) is the whole
// run. Beside ns/op it reports cpu-ms/op, the process's user plus system
// time per op: a rank that spins on its mailbox trades CPU for latency,
// and this is the CPU side of that trade.
func BenchmarkSSSPChain(b *testing.B) {
	g := graph.Grid("chain", 4, 600, 8, 11)
	cfg := paralagg.Config{Ranks: 2, Subs: 1}
	cpu0 := cpuTime(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.RunSSSP(g, []uint64{0}, cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(cpuTime(b)-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
}

// cpuTime is the process's user plus system time so far.
func cpuTime(b *testing.B) time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		b.Fatal(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// --- Figure 7: per-iteration profile ---

func BenchmarkFig7IterationProfile(b *testing.B) {
	g := loadGraph(b, "twitter-sim")
	sources := g.Sources(10, 2)
	var tail float64
	for i := 0; i < b.N; i++ {
		res, err := queries.RunSSSP(g, sources, paralagg.Config{Ranks: 32, Subs: 8, Plan: paralagg.Dynamic})
		if err != nil {
			b.Fatal(err)
		}
		// The long-tail statistic: share of time in the second half of the
		// iterations.
		half := len(res.IterPhaseSeconds) / 2
		var head, rest float64
		for it, row := range res.IterPhaseSeconds {
			for _, v := range row {
				if it < half {
					head += v
				} else {
					rest += v
				}
			}
		}
		tail = rest / (head + rest)
	}
	b.ReportMetric(tail*100, "tail-%")
}

// --- Elastic recovery: checkpoint and restore overhead ---

// benchCheckpointOverhead runs SSSP/twitter-sim with a checkpoint every
// `every` iterations (0 = off) and reports the simulated time spent
// serializing snapshots next to the run's total — the fault-tolerance tax
// as a function of the interval K.
func benchCheckpointOverhead(b *testing.B, every int) {
	g := loadGraph(b, "twitter-sim")
	sources := g.Sources(5, 1)
	var sim, ckpt float64
	for i := 0; i < b.N; i++ {
		cfg := paralagg.Config{Ranks: 32, Subs: 8, Plan: paralagg.Dynamic}
		if every > 0 {
			cfg.CheckpointEvery = every
			cfg.Checkpoints = paralagg.NewMemoryCheckpointSink()
		}
		res, err := queries.RunSSSP(g, sources, cfg)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.SimSeconds
		ckpt = res.PhaseSeconds["checkpoint"]
	}
	reportSim(b, sim)
	b.ReportMetric(ckpt*1e3, "ckpt-sim-ms/op")
}

func BenchmarkCheckpointOff(b *testing.B)    { benchCheckpointOverhead(b, 0) }
func BenchmarkCheckpointEvery8(b *testing.B) { benchCheckpointOverhead(b, 8) }
func BenchmarkCheckpointEvery4(b *testing.B) { benchCheckpointOverhead(b, 4) }
func BenchmarkCheckpointEvery2(b *testing.B) { benchCheckpointOverhead(b, 2) }

// benchRecovery crashes rank (ranks-1) mid-fixpoint and lets the supervisor
// rebuild at restartRanks, reporting the simulated restore cost: the
// same-size path shows up as recovery-sim-ms, the elastic path (restart
// size ≠ 32) as remap-sim-ms.
func benchRecovery(b *testing.B, restartRanks int) {
	g := loadGraph(b, "twitter-sim")
	sources := g.Sources(5, 1)
	var remap, recovery float64
	for i := 0; i < b.N; i++ {
		cfg := paralagg.SuperviseConfig{
			Config: paralagg.Config{
				Ranks: 32, Subs: 8, Plan: paralagg.Dynamic,
				CheckpointEvery: 4,
				Checkpoints:     paralagg.NewMemoryCheckpointSink(),
				Faults: &paralagg.FaultPlan{
					Seed:    1,
					Crashes: []paralagg.Crash{{Rank: 31, Iter: 6, Op: "alltoallv"}},
				},
			},
			RecoveryBackoff: time.Millisecond,
		}
		if restartRanks != 32 {
			cfg.RanksFor = func(restart, prev int, lost []int) int { return restartRanks }
		}
		res, rep, err := paralagg.Supervise(queries.SSSPProgram(), cfg,
			func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, sources) }, nil)
		if err != nil {
			b.Fatal(err)
		}
		if rep.RecoveryAttempts != 1 {
			b.Fatalf("expected 1 recovery, got %d", rep.RecoveryAttempts)
		}
		remap = res.PhaseSeconds["remap"]
		recovery = res.PhaseSeconds["recovery"]
	}
	b.ReportMetric(remap*1e3, "remap-sim-ms/op")
	b.ReportMetric(recovery*1e3, "recovery-sim-ms/op")
}

func BenchmarkRecoverySameSize(b *testing.B) { benchRecovery(b, 32) }
func BenchmarkRecoveryDegraded(b *testing.B) { benchRecovery(b, 31) }
func BenchmarkRecoveryHalved(b *testing.B)   { benchRecovery(b, 16) }

// --- Ablations ---

func BenchmarkAblationJoinDynamic(b *testing.B) {
	benchFig2(b, paralagg.Config{Ranks: 32, Subs: 8, Plan: paralagg.Dynamic})
}

func BenchmarkAblationJoinStaticRight(b *testing.B) {
	benchFig2(b, paralagg.Config{Ranks: 32, Subs: 8, Plan: paralagg.StaticRight})
}

func BenchmarkAblationAggParalagg(b *testing.B) {
	g := loadGraph(b, "flickr-sim")
	sources := g.Sources(5, 1)
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := queries.RunSSSP(g, sources, paralagg.Config{Ranks: 16, Subs: 1, Plan: paralagg.Dynamic})
		if err != nil {
			b.Fatal(err)
		}
		sim = res.SimSeconds
	}
	reportSim(b, sim)
}

func BenchmarkAblationAggLeaky(b *testing.B) {
	g := loadGraph(b, "flickr-sim")
	sources := g.Sources(5, 1)
	var sim float64
	for i := 0; i < b.N; i++ {
		res, err := baseline.RunSSSP(baseline.RaSQLSim, g, sources, 16)
		if err != nil {
			b.Fatal(err)
		}
		sim = res.SimSeconds
	}
	reportSim(b, sim)
}
