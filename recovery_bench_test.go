package paralagg_test

// Recovery benchmarks: the MTTR differential, which the committed
// benchmark (benchmark/) cannot express — none of its workloads crashes.
//
//	go test -run '^$' -bench 'RecoveryHotReplace|RecoveryFullRestart' -benchmem -benchtime 10x .
//
// (the pattern is deliberately exact: a bare 'Recovery' would also match the
// slow simulated-recovery benchmarks). Both arms run the same incident — the
// SSSP chaos scenario over a real loopback TCP gang, highest rank crashed
// entering iteration 5's tuple exchange — and repair it two ways:
//
//   - RecoveryHotReplace{4,8}:  survivors park in place, one replacement
//     process restores its own shard and splices into the retained send
//     histories (the partial-restart path);
//   - RecoveryFullRestart4:     every rank torn down and rebuilt, the whole
//     world re-entering from the agreed checkpoint (the baseline).
//
// Each run reports mttr-ms/op — wall clock from the victim's death to the
// gang completing — which is the number the two strategies compete on: the
// hot-replace arm must come in under the full-restart arm. Every run also
// re-verifies the bit-identical differential, so the benchmark doubles as a
// repeated correctness check.

import (
	"testing"

	"paralagg/internal/chaos"
)

func benchMTTR(b *testing.B, ranks int, run func(chaos.Scenario, string, int, int, int) (*chaos.Outcome, error)) {
	b.ReportAllocs()
	sc := chaos.Scenarios()[0] // sssp
	var mttrMS float64
	for i := 0; i < b.N; i++ {
		// A run that returns without error has verified the differential.
		o, err := run(sc, "", ranks, 2, 5)
		if err != nil {
			b.Fatal(err)
		}
		mttrMS += float64(o.MTTR.Microseconds()) / 1e3
	}
	b.ReportMetric(mttrMS/float64(b.N), "mttr-ms/op")
}

func BenchmarkRecoveryHotReplace4(b *testing.B)  { benchMTTR(b, 4, chaos.TCPHotReplace) }
func BenchmarkRecoveryHotReplace8(b *testing.B)  { benchMTTR(b, 8, chaos.TCPHotReplace) }
func BenchmarkRecoveryFullRestart4(b *testing.B) { benchMTTR(b, 4, chaos.TCPFullRestart) }
func BenchmarkRecoveryFullRestart8(b *testing.B) { benchMTTR(b, 8, chaos.TCPFullRestart) }
