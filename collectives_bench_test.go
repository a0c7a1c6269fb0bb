package paralagg_test

// Collective-schedule benchmarks: the flat-vs-tree comparison (the
// committed benchmark, benchmark/, runs the flat schedule only):
//
//	go test -run '^$' -bench 'Collectives' -benchmem -benchtime 20x .
//
// TestConvergenceAllreduceRootBytes pins the headline flat-112 B/tree-48 B
// root traffic rather than recording it. Every world is in-process, so both
// schedules run over the identical substrate (the memTransport
// mailboxes, with per-peer byte metering) and the only variable is the
// routing shape:
//
//   - CollectivesAllreduce:    the scalar convergence Allreduce every
//     fixpoint iteration ends on — the latency the schedule refactor is
//     aimed at. root-bytes/op is the traffic through rank 0, the flat
//     star's serialization point: 2·(P−1)·8 bytes flat versus
//     2·⌈log2 P⌉·8 under the binomial tree.
//   - CollectivesAllreduceVec: a 4096-word reduction, where the payload
//     rather than the hop count dominates: both schedules move whole
//     vectors over every edge they use.
//   - CollectivesAlltoallv:    the per-iteration tuple exchange (64 words
//     per lane), which stays pairwise under every schedule; the bench pins
//     down that schedule routing adds nothing to its cost.
//
// Each run re-checks the reduction results, so the benchmark doubles as a
// correctness pass over the schedule it measures.

import (
	"fmt"
	"testing"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
)

// collIters amortizes world construction (goroutine spawn) across enough
// collective calls that the per-op metrics measure the collectives.
const collIters = 64

var benchSchedules = []mpi.ScheduleKind{mpi.ScheduleFlat, mpi.ScheduleTree}

// runColl builds one in-process world on the given schedule, runs body
// SPMD, and returns the per-rank meters.
func runColl(tb testing.TB, ranks int, sched mpi.ScheduleKind, body func(c *mpi.Comm) error) []mpi.RankStats {
	tb.Helper()
	w := mpi.NewWorld(ranks)
	w.SetSchedule(sched)
	if err := w.Run(body); err != nil {
		tb.Fatal(err)
	}
	return w.Stats().PerRank()
}

// modeledCriticalNS prices every rank's traffic with the default cost model
// and returns the worst rank — the serialization point the schedule exists
// to relieve. In-process mailboxes have no per-message wire cost, so the
// wall-clock columns cannot show the flat root's O(P) bottleneck; this
// metric is the same critical-path model EXPERIMENTS.md derives, applied to
// the measured per-peer byte matrix (scalar collectives move one-word
// frames, so msgs = bytes/8 exactly).
func modeledCriticalNS(per []mpi.RankStats) float64 {
	var worst float64
	for _, r := range per {
		var bytes int64
		for _, b := range r.PeerBytesSent {
			bytes += b
		}
		for _, b := range r.PeerBytesRecv {
			bytes += b
		}
		s := metrics.Sample{Bytes: bytes, Msgs: bytes / mpi.WordBytes}
		if c := metrics.DefaultCostModel.Cost(s); c > worst {
			worst = c
		}
	}
	return worst
}

// rootBytes is the wire traffic through rank 0 — sent plus received.
func rootBytes(per []mpi.RankStats) int64 {
	var tot int64
	for _, b := range per[0].PeerBytesSent {
		tot += b
	}
	for _, b := range per[0].PeerBytesRecv {
		tot += b
	}
	return tot
}

func BenchmarkCollectivesAllreduce(b *testing.B) {
	for _, ranks := range []int{4, 8, 16} {
		for _, sched := range benchSchedules {
			b.Run(fmt.Sprintf("%s/%d", sched, ranks), func(b *testing.B) {
				b.ReportAllocs()
				var root int64
				var modeled float64
				for n := 0; n < b.N; n++ {
					per := runColl(b, ranks, sched, func(c *mpi.Comm) error {
						for i := 0; i < collIters; i++ {
							want := uint64(ranks*(ranks-1)/2 + ranks*i)
							if got := c.Allreduce(uint64(c.Rank()+i), mpi.OpSum); got != want {
								return fmt.Errorf("allreduce %d: got %d, want %d", i, got, want)
							}
						}
						return nil
					})
					root = rootBytes(per)
					modeled = modeledCriticalNS(per)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*collIters), "ns/allreduce")
				b.ReportMetric(float64(root)/collIters, "root-bytes/op")
				b.ReportMetric(modeled/collIters, "modeled-ns/op")
			})
		}
	}
}

func BenchmarkCollectivesAllreduceVec(b *testing.B) {
	const words = 4096
	for _, ranks := range []int{4, 8, 16} {
		for _, sched := range benchSchedules {
			b.Run(fmt.Sprintf("%s/%d", sched, ranks), func(b *testing.B) {
				b.ReportAllocs()
				var root int64
				for n := 0; n < b.N; n++ {
					per := runColl(b, ranks, sched, func(c *mpi.Comm) error {
						send := make([]mpi.Word, words)
						recv := make([]mpi.Word, words)
						for j := range send {
							send[j] = mpi.Word(c.Rank() + j)
						}
						for i := 0; i < collIters/8; i++ {
							out := c.AllreduceVec(send, recv, mpi.OpSum)
							if want := mpi.Word(ranks * (ranks - 1) / 2); out[0] != want {
								return fmt.Errorf("allreducevec[0]: got %d, want %d", out[0], want)
							}
						}
						return nil
					})
					root = rootBytes(per)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*collIters/8), "ns/allreduce")
				b.ReportMetric(float64(root)/(collIters/8), "root-bytes/op")
			})
		}
	}
}

func BenchmarkCollectivesAlltoallv(b *testing.B) {
	const lane = 64
	for _, ranks := range []int{4, 8, 16} {
		for _, sched := range benchSchedules {
			b.Run(fmt.Sprintf("%s/%d", sched, ranks), func(b *testing.B) {
				b.ReportAllocs()
				for n := 0; n < b.N; n++ {
					runColl(b, ranks, sched, func(c *mpi.Comm) error {
						for i := 0; i < collIters/8; i++ {
							send := make([][]mpi.Word, ranks)
							for d := range send {
								send[d] = make([]mpi.Word, lane)
								for j := range send[d] {
									send[d][j] = mpi.Word(c.Rank()*1000 + d)
								}
							}
							got := c.Alltoallv(send)
							for src := range got {
								if len(got[src]) != lane || got[src][0] != mpi.Word(src*1000+c.Rank()) {
									return fmt.Errorf("alltoallv from %d: got %v...", src, got[src][:1])
								}
							}
						}
						return nil
					})
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*collIters/8), "ns/exchange")
			})
		}
	}
}

// TestConvergenceAllreduceRootBytes pins the headline number of the schedule
// refactor: the bytes serialized through rank 0 by one convergence Allreduce
// on 8 ranks. The flat star funnels every contribution through the root —
// 7 words up, 7 down, 112 bytes — where the binomial tree leaves the root
// just its ⌈log2 8⌉ = 3 children, 48 bytes: a 2.3× reduction that grows
// with P (2·(P−1) versus 2·⌈log2 P⌉).
func TestConvergenceAllreduceRootBytes(t *testing.T) {
	measure := func(sched mpi.ScheduleKind) int64 {
		per := runColl(t, 8, sched, func(c *mpi.Comm) error {
			if got := c.Allreduce(uint64(c.Rank()), mpi.OpSum); got != 28 {
				return fmt.Errorf("allreduce: got %d, want 28", got)
			}
			return nil
		})
		return rootBytes(per)
	}
	flat, tree := measure(mpi.ScheduleFlat), measure(mpi.ScheduleTree)
	if flat != 2*7*mpi.WordBytes {
		t.Errorf("flat root bytes = %d, want %d (7 words up + 7 down)", flat, 2*7*mpi.WordBytes)
	}
	if tree != 2*3*mpi.WordBytes {
		t.Errorf("tree root bytes = %d, want %d (3 children up + 3 down)", tree, 2*3*mpi.WordBytes)
	}
	if flat < 2*tree {
		t.Errorf("tree schedule must cut root traffic at least 2x: flat %d vs tree %d", flat, tree)
	}
}
