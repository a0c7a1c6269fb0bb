package core

import (
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/tuple"
)

// TestCompiledEmitAllocFree pins the emit half of the derive path: a
// compiled join rule whose head computes a column (an Apply term) and whose
// body carries a condition evaluates both into scratch the rule owns and
// writes the head tuple into the slot the kernel hands it — no allocation
// per match, kept or filtered. The copy rule shares the emitter.
func TestCompiledEmitAllocFree(t *testing.T) {
	run(t, 1, func(c *mpi.Comm) error {
		p := NewProgram()
		p.DeclareSet("edge", 3, 1)
		p.DeclareAgg("spath", 2, lattice.Min{})
		p.Add(R(A("spath", Var("f"), Var("t"), Add(Var("l"), Mul(Var("w"), Const(2)))),
			A("spath", Var("f"), Var("m"), Var("l")), A("edge", Var("m"), Var("t"), Var("w"))).
			Where(Lt(Var("l"), Const(100))))
		p.Add(R(A("spath", Var("u"), Var("v"), Add(Var("w"), Const(1))), A("edge", Var("u"), Var("v"), Var("w"))).
			Where(Ne(Var("u"), Var("v"))))
		in, err := p.Instantiate(c, metrics.NewCollector(1), Config{})
		if err != nil {
			return err
		}
		var join *ra.Join
		var cp *ra.Copy
		for _, st := range in.strata {
			for _, r := range st.fix.Rules {
				switch k := r.(type) {
				case *ra.Join:
					join = k
				case *ra.Copy:
					cp = k
				}
			}
		}
		if join == nil || cp == nil {
			t.Fatal("program did not compile to one join and one copy")
		}
		// Stored order: spath by its join column (m, f, l); edge canonical.
		left, right := tuple.Tuple{7, 1, 40}, tuple.Tuple{7, 9, 3}
		far := tuple.Tuple{7, 1, 100} // fails l < 100
		out := make(tuple.Tuple, 3)
		kept := 0
		allocs := testing.AllocsPerRun(1000, func() {
			if join.Emit(left, right, out) {
				kept++
			}
			if join.Emit(far, right, out) {
				kept--
			}
			if cp.Emit(right, nil, out) {
				kept++
			}
		})
		if allocs != 0 {
			t.Errorf("compiled emit: %v allocs per three matches, want 0", allocs)
		}
		if kept != 2*1001 {
			t.Errorf("kept %d matches, want %d", kept, 2*1001)
		}
		if !join.Emit(left, right, out) || !out.Equal(tuple.Tuple{1, 9, 46}) {
			t.Errorf("join emitted %v, want (1, 9, 46)", out)
		}
		if !cp.Emit(right, nil, out) || !out.Equal(tuple.Tuple{7, 9, 4}) {
			t.Errorf("copy emitted %v, want (7, 9, 4)", out)
		}
		return nil
	})
}
