package relation

// Hot-path microbenchmarks for the fused dedup/aggregation store. Per the
// paper's §III-A the local aggregation pass is what must be cheap for
// communication avoidance to pay off, so the existing-key probe — the
// overwhelmingly common case once a fixpoint is past its first iterations —
// must not touch the allocator (pinned by the AllocsPerRun tests beside
// this file; the committed benchmark's relation.materialize_* probes time it).
// Run with: go test ./internal/relation -bench BenchmarkAcc -benchmem

import (
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// benchWorld runs body on a single-rank world, failing b on error.
func benchWorld(b *testing.B, body func(c *mpi.Comm) error) {
	b.Helper()
	w := mpi.NewWorld(1)
	if err := w.Run(body); err != nil {
		b.Fatal(err)
	}
}

const accBenchKeys = 512

func accBenchBuffer(worse bool) *tuple.Buffer {
	buf := tuple.NewBuffer(3, accBenchKeys)
	for k := 0; k < accBenchKeys; k++ {
		v := tuple.Value(100)
		if worse {
			v = 500 // never improves the resident value
		}
		buf.Append(tuple.Tuple{tuple.Value(k), tuple.Value(k + 1), v})
	}
	return buf
}

// BenchmarkAccInsertExisting materializes a batch whose every key is already
// resident with an equal-or-better value: the pure probe/merge path with no
// Δ production. One op = accBenchKeys tuples.
func BenchmarkAccInsertExisting(b *testing.B) {
	benchWorld(b, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}},
			c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		seed := accBenchBuffer(false)
		r.Materialize(0, seed, false)
		probe := accBenchBuffer(true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Materialize(i+1, probe, false)
		}
		return nil
	})
}

// BenchmarkAccInsertImproving materializes batches that strictly improve
// every resident key, exercising the merge + Δ + index-maintenance path.
func BenchmarkAccInsertImproving(b *testing.B) {
	benchWorld(b, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}},
			c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		start := tuple.Value(uint64(b.N) + 10)
		buf := tuple.NewBuffer(3, accBenchKeys)
		for k := 0; k < accBenchKeys; k++ {
			buf.Append(tuple.Tuple{tuple.Value(k), tuple.Value(k + 1), start})
		}
		r.Materialize(0, buf, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			v := start - tuple.Value(i) - 1
			for k := 0; k < accBenchKeys; k++ {
				buf.Append(tuple.Tuple{tuple.Value(k), tuple.Value(k + 1), v})
			}
			r.Materialize(i+1, buf, false)
		}
		return nil
	})
}

// BenchmarkSetDedupExisting is the set-semantics twin: every arriving tuple
// is already stored, so the pass is pure dedup probes.
func BenchmarkSetDedupExisting(b *testing.B) {
	benchWorld(b, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		r, err := New(Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		buf := tuple.NewBuffer(2, accBenchKeys)
		for k := 0; k < accBenchKeys; k++ {
			buf.Append(tuple.Tuple{tuple.Value(k % 37), tuple.Value(k)})
		}
		r.Materialize(0, buf, false)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Materialize(i+1, buf, false)
		}
		return nil
	})
}
