// Package queries provides the paper's evaluation queries as PARALAGG
// programs — SSSP, connected components (§V-A), transitive closure,
// PageRank, and longest-shortest-path (§III-A) — together with loaders for
// graph inputs and sequential reference implementations used to validate
// every distributed run.
package queries

import (
	"fmt"
	"math"

	"paralagg"
	"paralagg/internal/graph"
)

// SSSPProgram builds the recursive-aggregation SSSP query of §II-C:
//
//	Spath(n, n, 0)              ← Start(n).
//	Spath(f, t, $MIN(l + w))    ← Spath(f, m, l), Edge(m, t, w).
//
// Multi-source runs (the paper uses 5–30 simultaneous sources) share the
// same relation: the independent columns (from, to) keep sources separate.
func SSSPProgram() *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 3, 1))
	mustDecl(p.DeclareAgg("spath", 2, paralagg.MinAgg))
	p.Add(paralagg.R(
		paralagg.A("spath", paralagg.Var("f"), paralagg.Var("t"),
			paralagg.Add(paralagg.Var("l"), paralagg.Var("w"))),
		paralagg.A("spath", paralagg.Var("f"), paralagg.Var("m"), paralagg.Var("l")),
		paralagg.A("edge", paralagg.Var("m"), paralagg.Var("t"), paralagg.Var("w")),
	))
	return p
}

// newRow returns the scratch row one rank's loader emits every fact from:
// LoadShare's emit copies the tuple, so `emit(append(row, u, v, w))` reuses
// one row where a Tuple literal per fact would escape through emit and cost
// a heap object each. It is per call — ranks load concurrently.
func newRow() paralagg.Tuple { return make(paralagg.Tuple, 0, 3) }

// LoadSSSP feeds a weighted graph and the start-node seeds into an
// instantiated SSSP program.
func LoadSSSP(rk *paralagg.Rank, g *graph.Graph, sources []uint64) error {
	row := newRow()
	if err := rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
		e := g.Edges[i]
		emit(append(row, e.U, e.V, e.W))
	}); err != nil {
		return err
	}
	return rk.LoadShare("spath", len(sources), func(i int, emit func(paralagg.Tuple)) {
		emit(append(row, sources[i], sources[i], 0))
	})
}

// RunSSSP executes SSSP over the graph from the given sources.
func RunSSSP(g *graph.Graph, sources []uint64, cfg paralagg.Config) (*paralagg.Result, error) {
	return paralagg.Exec(SSSPProgram(), cfg, func(rk *paralagg.Rank) error {
		return LoadSSSP(rk, g, sources)
	}, nil)
}

// CCProgram builds the connected-components query of §V-A (with the
// standard label-propagation rule):
//
//	cc(n, n)          ← node(n).
//	cc(y, $MIN(z))    ← cc(x, z), edge(x, y).
func CCProgram() *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 2, 1))
	mustDecl(p.DeclareAgg("cc", 1, paralagg.MinAgg))
	p.Add(paralagg.R(
		paralagg.A("cc", paralagg.Var("y"), paralagg.Var("z")),
		paralagg.A("cc", paralagg.Var("x"), paralagg.Var("z")),
		paralagg.A("edge", paralagg.Var("x"), paralagg.Var("y")),
	))
	return p
}

// LoadCC feeds the undirected form of the graph plus self-label seeds.
func LoadCC(rk *paralagg.Rank, g *graph.Graph) error {
	und := g.Undirected()
	row := newRow()
	if err := rk.LoadShare("edge", len(und), func(i int, emit func(paralagg.Tuple)) {
		emit(append(row, und[i].U, und[i].V))
	}); err != nil {
		return err
	}
	return rk.LoadShare("cc", g.Nodes, func(i int, emit func(paralagg.Tuple)) {
		emit(append(row, uint64(i), uint64(i)))
	})
}

// RunCC executes connected components over the graph.
func RunCC(g *graph.Graph, cfg paralagg.Config) (*paralagg.Result, error) {
	return paralagg.Exec(CCProgram(), cfg, func(rk *paralagg.Rank) error {
		return LoadCC(rk, g)
	}, nil)
}

// TCProgram builds plain transitive closure (§II-A), the vanilla-Datalog
// workload without aggregation:
//
//	path(x, y) ← edge(x, y).
//	path(x, z) ← path(x, y), edge(y, z).
func TCProgram() *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 2, 1))
	mustDecl(p.DeclareSet("path", 2, 1))
	p.Add(
		paralagg.R(paralagg.A("path", paralagg.Var("x"), paralagg.Var("y")),
			paralagg.A("edge", paralagg.Var("x"), paralagg.Var("y"))),
		paralagg.R(paralagg.A("path", paralagg.Var("x"), paralagg.Var("z")),
			paralagg.A("path", paralagg.Var("x"), paralagg.Var("y")),
			paralagg.A("edge", paralagg.Var("y"), paralagg.Var("z"))),
	)
	return p
}

// LoadTC feeds a directed graph.
func LoadTC(rk *paralagg.Rank, g *graph.Graph) error {
	row := newRow()
	return rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
		emit(append(row, g.Edges[i].U, g.Edges[i].V))
	})
}

// LspProgram extends SSSP with a second stratum computing the longest
// shortest path (the §III-A example): because the copy into spNorm runs in
// its own stratum, only converged shortest paths flow in — no transient
// tuple "leak".
//
//	SpNorm(f, t, v) ← Spath(f, t, v).
//	Lsp($MAX(v))    ← SpNorm(_, _, v).
func LspProgram() *paralagg.Program {
	p := SSSPProgram()
	mustDecl(p.DeclareSet("spnorm", 3, 1))
	mustDecl(p.DeclareAgg("lsp", 1, paralagg.MaxAgg))
	p.Add(
		paralagg.R(paralagg.A("spnorm", paralagg.Var("f"), paralagg.Var("t"), paralagg.Var("v")),
			paralagg.A("spath", paralagg.Var("f"), paralagg.Var("t"), paralagg.Var("v"))),
		paralagg.R(paralagg.A("lsp", paralagg.Const(0), paralagg.Var("v")),
			paralagg.A("spnorm", paralagg.Var("f"), paralagg.Var("t"), paralagg.Var("v"))),
	)
	return p
}

// PageRankProgram builds damped PageRank as iteration-stratified recursive
// aggregation (the RaSQL/DeALS formulation): ranks for iteration i+1 sum a
// teleport term plus damped contributions along edges. The edgeInv relation
// carries 1/outdeg(x) as float bits; teleportBits and dampBits encode
// (1-d)/N and d.
//
//	pr(i+1, y, $MSUM(teleport))       ← pr(i, y, r),            i < K.
//	pr(i+1, y, $MSUM(d · r · inv))    ← pr(i, x, r), edgeInv(x, y, inv), i < K.
func PageRankProgram(iters int, nodes int, damping float64) *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edgeinv", 3, 1))
	mustDecl(p.DeclareAgg("pr", 2, paralagg.MSumAgg))
	teleport := paralagg.Const(math.Float64bits((1 - damping) / float64(nodes)))
	damp := paralagg.Const(math.Float64bits(damping))
	k := paralagg.Const(uint64(iters))
	p.Add(
		paralagg.R(
			paralagg.A("pr", paralagg.Add(paralagg.Var("i"), paralagg.Const(1)), paralagg.Var("y"), teleport),
			paralagg.A("pr", paralagg.Var("i"), paralagg.Var("y"), paralagg.Var("r")),
		).Where(paralagg.Lt(paralagg.Var("i"), k)),
		paralagg.R(
			paralagg.A("pr", paralagg.Add(paralagg.Var("i"), paralagg.Const(1)), paralagg.Var("y"),
				paralagg.FMul(damp, paralagg.FMul(paralagg.Var("r"), paralagg.Var("inv")))),
			paralagg.A("pr", paralagg.Var("i"), paralagg.Var("x"), paralagg.Var("r")),
			paralagg.A("edgeinv", paralagg.Var("x"), paralagg.Var("y"), paralagg.Var("inv")),
		).Where(paralagg.Lt(paralagg.Var("i"), k)),
	)
	return p
}

// LoadPageRank feeds edge/inverse-degree facts and the uniform iteration-0
// distribution.
func LoadPageRank(rk *paralagg.Rank, g *graph.Graph) error {
	deg := g.OutDegrees()
	row := newRow()
	if err := rk.LoadShare("edgeinv", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
		e := g.Edges[i]
		emit(append(row, e.U, e.V, math.Float64bits(1/float64(deg[e.U]))))
	}); err != nil {
		return err
	}
	return rk.LoadShare("pr", g.Nodes, func(i int, emit func(paralagg.Tuple)) {
		emit(append(row, 0, uint64(i), math.Float64bits(1/float64(g.Nodes))))
	})
}

// StratifiedSSSPProgram builds the *stratified-aggregation* SSSP of §II-B —
// the formulation whose "poor asymptotic performance" motivates recursive
// aggregates: a full Path enumeration to fixpoint, then a MIN in a second
// stratum. Path lengths are capped (hop count) so the enumeration stays
// finite on cyclic graphs; even so it materializes every distinct path
// length, which is the overhead the paper's Figure 2 baseline discussion
// describes. Use small graphs only.
//
//	Path(n, n, 0)      ← Start(n).
//	Path(f, t, l + w)  ← Path(f, m, l), Edge(m, t, w), l + w ≤ cap.
//	Spath(f, t, MIN l) ← Path(f, t, l).
func StratifiedSSSPProgram(lengthCap uint64) *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 3, 1))
	mustDecl(p.DeclareSet("path", 3, 1))
	mustDecl(p.DeclareAgg("spath", 2, paralagg.MinAgg))
	p.Add(
		paralagg.R(
			paralagg.A("path", paralagg.Var("f"), paralagg.Var("t"),
				paralagg.Add(paralagg.Var("l"), paralagg.Var("w"))),
			paralagg.A("path", paralagg.Var("f"), paralagg.Var("m"), paralagg.Var("l")),
			paralagg.A("edge", paralagg.Var("m"), paralagg.Var("t"), paralagg.Var("w")),
		).Where(paralagg.Where("cap", func(v []paralagg.Value) bool {
			return v[0]+v[1] <= lengthCap
		}, paralagg.Var("l"), paralagg.Var("w"))),
		paralagg.R(
			paralagg.A("spath", paralagg.Var("f"), paralagg.Var("t"), paralagg.Var("l")),
			paralagg.A("path", paralagg.Var("f"), paralagg.Var("t"), paralagg.Var("l")),
		),
	)
	return p
}

// LoadStratifiedSSSP mirrors LoadSSSP for the stratified program.
func LoadStratifiedSSSP(rk *paralagg.Rank, g *graph.Graph, sources []uint64) error {
	row := newRow()
	if err := rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
		e := g.Edges[i]
		emit(append(row, e.U, e.V, e.W))
	}); err != nil {
		return err
	}
	return rk.LoadShare("path", len(sources), func(i int, emit func(paralagg.Tuple)) {
		emit(append(row, sources[i], sources[i], 0))
	})
}

func mustDecl(err error) {
	if err != nil {
		panic(fmt.Sprintf("queries: %v", err))
	}
}
