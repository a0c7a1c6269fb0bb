package paralagg_test

// Integrity overhead benchmarks: identical SSSP fixpoints with online
// divergence detection off and on. The pairs quantify what the
// fingerprinting layer costs — per-tuple splitmix64 digests over the full
// relation state every iteration, ridden on the convergence Allreduce —
// which the design budgets at <= 5% end-to-end on the SSSP bench.
//
// Two regimes:
//   - Wiki16/Twitter32 are the paper-scale SSSP bench configurations
//     (bench_test.go); iterations are join-dominated and the digest scan
//     disappears into the noise. These carry the <= 5% acceptance budget.
//   - Grid1/Grid4 is a 24×24 micro grid: ~300µs iterations over a tiny
//     graph, the adversarial ratio of state scanned to work done. It bounds
//     the constant factor, not the budget.
//
// allocs/op must match within each pair modulo one-time digest scratch: the
// steady-state digest path allocates nothing (pinned by
// TestSteadyStateIterationAllocFreeIntegrity). The committed benchmark
// (benchmark/) runs no workload with integrity on, so the tax is measured
// here:
//
//	go test -run '^$' -bench 'IntegrityO(n|ff)' -benchmem -benchtime 20x .

import (
	"testing"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

func benchIntegrityGrid(b *testing.B, ranks int, integrity bool) {
	g := graph.Grid("hotpath-grid", 24, 24, 8, 11)
	sources := []uint64{0, 5}
	cfg := paralagg.Config{Ranks: ranks, Subs: 2, Plan: paralagg.Dynamic, Integrity: integrity}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.RunSSSP(g, sources, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func benchIntegrityScale(b *testing.B, gname string, ranks int, integrity bool) {
	g := loadGraph(b, gname)
	sources := g.Sources(5, 1)
	cfg := paralagg.Config{Ranks: ranks, Subs: 8, Plan: paralagg.Dynamic, Integrity: integrity}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := queries.RunSSSP(g, sources, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIntegrityOffSSSPWiki16(b *testing.B) { benchIntegrityScale(b, "wiki-sim", 16, false) }
func BenchmarkIntegrityOnSSSPWiki16(b *testing.B)  { benchIntegrityScale(b, "wiki-sim", 16, true) }
func BenchmarkIntegrityOffSSSPTwitter32(b *testing.B) {
	benchIntegrityScale(b, "twitter-sim", 32, false)
}
func BenchmarkIntegrityOnSSSPTwitter32(b *testing.B) {
	benchIntegrityScale(b, "twitter-sim", 32, true)
}
func BenchmarkIntegrityOffSSSPGrid1(b *testing.B) { benchIntegrityGrid(b, 1, false) }
func BenchmarkIntegrityOnSSSPGrid1(b *testing.B)  { benchIntegrityGrid(b, 1, true) }
func BenchmarkIntegrityOffSSSPGrid4(b *testing.B) { benchIntegrityGrid(b, 4, false) }
func BenchmarkIntegrityOnSSSPGrid4(b *testing.B)  { benchIntegrityGrid(b, 4, true) }
