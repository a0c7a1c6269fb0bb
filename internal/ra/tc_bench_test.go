package ra

import (
	"fmt"
	"testing"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// BenchmarkTC times transitive closure, the one-shot program whose head is a
// derived set relation: path's FULL takes every pass's new tuples, and its
// reversed index takes them again over the replica exchange. It runs a
// 300-node random graph at 2 ranks and reports the simulated time as
// sim-ms/op beside ns/op.
func BenchmarkTC(b *testing.B) {
	const ranks, nodes = 2, 300
	es := randGraph(nodes, 420, 7, 1)
	want := uint64(len(refClosure(nodes, es)))
	for _, subs := range []int{1, 4} {
		b.Run(fmt.Sprintf("subs=%d", subs), func(b *testing.B) {
			var sim float64
			for i := 0; i < b.N; i++ {
				mc := metrics.NewCollector(ranks)
				err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
					edgeRel, err := relation.New(relation.Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{Subs: subs})
					if err != nil {
						return err
					}
					pathRel, err := relation.New(relation.Schema{Name: "path", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{Subs: subs})
					if err != nil {
						return err
					}
					pathRev, err := pathRel.AddIndex([]int{1, 0}, 1)
					if err != nil {
						return err
					}
					edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
						emit(tuple.Tuple{es[i].u, es[i].v})
					})
					copyRule := &Copy{
						Name: "path(x,y) <- edge(x,y)", Src: edgeRel.Canonical(), SrcRel: edgeRel, Head: pathRel,
						Emit: func(src, _, out tuple.Tuple) bool { return copy(out, src) > 0 },
					}
					joinRule := &Join{
						Name: "path(x,z) <- path(x,y), edge(y,z)",
						Left: pathRev, LeftRel: pathRel,
						Right: edgeRel.Canonical(), RightRel: edgeRel,
						Head: pathRel, JK: 1,
						Emit: func(l, r, out tuple.Tuple) bool {
							out[0], out[1] = l[1], r[1]
							return true
						},
					}
					NewFixpoint(c, mc, copyRule, joinRule).Run(Options{Plan: PlanDynamic})
					if got := pathRel.GlobalFullCount(); got != want {
						return fmt.Errorf("closure size %d, want %d", got, want)
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
				sim = mc.BuildReport(metrics.DefaultCostModel).SimSeconds()
			}
			b.ReportMetric(sim*1e3, "sim-ms/op")
		})
	}
}
