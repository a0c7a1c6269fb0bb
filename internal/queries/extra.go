package queries

import (
	"paralagg"
	"paralagg/internal/graph"
)

// The queries in this file go beyond the paper's evaluation set and
// exercise the remaining aggregates the library ships — $MAX as a widest
// path, $BOR as multi-source reachability labels, $MCOUNT as triangle
// counting — demonstrating the "plethora of recursive aggregates" the
// paper implements on the same API (§IV-B).

// infCapacity seeds widest-path sources: effectively unbounded bottleneck.
const infCapacity = uint64(1) << 62

// WidestPathProgram computes single-source widest (maximum-bottleneck)
// paths: the dependent value is the best achievable minimum edge weight
// along a path, aggregated with $MAX.
//
//	wp(s, s, ∞)               ← Start(s).
//	wp(f, t, $MAX(min(c, w))) ← wp(f, m, c), edge(m, t, w).
func WidestPathProgram() *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 3, 1))
	mustDecl(p.DeclareAgg("wp", 2, paralagg.MaxAgg))
	minFn := func(v []paralagg.Value) paralagg.Value {
		if v[0] < v[1] {
			return v[0]
		}
		return v[1]
	}
	p.Add(paralagg.R(
		paralagg.A("wp", paralagg.Var("f"), paralagg.Var("t"),
			paralagg.Compute("min", minFn, paralagg.Var("c"), paralagg.Var("w"))),
		paralagg.A("wp", paralagg.Var("f"), paralagg.Var("m"), paralagg.Var("c")),
		paralagg.A("edge", paralagg.Var("m"), paralagg.Var("t"), paralagg.Var("w")),
	))
	return p
}

// RunWidestPath executes widest path from the given sources.
func RunWidestPath(g *graph.Graph, sources []uint64, cfg paralagg.Config) (*paralagg.Result, error) {
	return paralagg.Exec(WidestPathProgram(), cfg, func(rk *paralagg.Rank) error {
		row := newRow()
		if err := rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
			e := g.Edges[i]
			emit(append(row, e.U, e.V, e.W))
		}); err != nil {
			return err
		}
		return rk.LoadShare("wp", len(sources), func(i int, emit func(paralagg.Tuple)) {
			emit(append(row, sources[i], sources[i], infCapacity))
		})
	}, nil)
}

// RefWidestPath computes maximum-bottleneck capacities from src with a
// Dijkstra variant (maximize the minimum edge weight).
func RefWidestPath(g *graph.Graph, src uint64) map[uint64]uint64 {
	adj := make([][]graph.Edge, g.Nodes)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e)
	}
	cap := make([]uint64, g.Nodes)
	cap[src] = infCapacity
	done := make([]bool, g.Nodes)
	for {
		u, best := -1, uint64(0)
		for i, c := range cap {
			if !done[i] && c > best {
				u, best = i, c
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range adj[u] {
			c := cap[u]
			if e.W < c {
				c = e.W
			}
			if c > cap[e.V] {
				cap[e.V] = c
			}
		}
	}
	out := map[uint64]uint64{}
	for i, c := range cap {
		if c > 0 {
			out[uint64(i)] = c
		}
	}
	return out
}

// ReachLabelsProgram assigns every node the bitmask of source labels that
// reach it — multi-source reachability over the 64-element power-set
// lattice ($BOR).
//
//	lab(s_i, 1<<i)    ← Source(i, s_i).
//	lab(y, $BOR(m))   ← lab(x, m), edge(x, y).
func ReachLabelsProgram() *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 2, 1))
	mustDecl(p.DeclareAgg("lab", 1, paralagg.BitOrAgg))
	p.Add(paralagg.R(
		paralagg.A("lab", paralagg.Var("y"), paralagg.Var("m")),
		paralagg.A("lab", paralagg.Var("x"), paralagg.Var("m")),
		paralagg.A("edge", paralagg.Var("x"), paralagg.Var("y")),
	))
	return p
}

// RunReachLabels executes multi-source reachability labeling; sources[i]
// carries label bit i (at most 64 sources).
func RunReachLabels(g *graph.Graph, sources []uint64, cfg paralagg.Config) (*paralagg.Result, error) {
	return paralagg.Exec(ReachLabelsProgram(), cfg, func(rk *paralagg.Rank) error {
		row := newRow()
		if err := rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
			emit(append(row, g.Edges[i].U, g.Edges[i].V))
		}); err != nil {
			return err
		}
		return rk.LoadShare("lab", len(sources), func(i int, emit func(paralagg.Tuple)) {
			emit(append(row, sources[i], 1<<uint(i)))
		})
	}, nil)
}

// RefReachLabels computes the same bitmasks by BFS from each source.
func RefReachLabels(g *graph.Graph, sources []uint64) map[uint64]uint64 {
	adj := make([][]uint64, g.Nodes)
	for _, e := range g.Edges {
		adj[e.U] = append(adj[e.U], e.V)
	}
	out := map[uint64]uint64{}
	for i, s := range sources {
		bit := uint64(1) << uint(i)
		visited := make([]bool, g.Nodes)
		visited[s] = true
		out[s] |= bit
		queue := []uint64{s}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					out[v] |= bit
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// TriangleCountProgram counts directed triangles x→y→z→x with x<y and x<z
// (each triangle counted once per its smallest vertex's orientation) via a
// three-atom body — exercising the compiler's n-ary chaining — into an
// $MCOUNT accumulator.
//
//	tri(0, $MCOUNT(1)) ← edge(x,y), edge(y,z), edge(z,x), x<y, x<z.
func TriangleCountProgram() *paralagg.Program {
	p := paralagg.NewProgram()
	mustDecl(p.DeclareSet("edge", 2, 1))
	mustDecl(p.DeclareAgg("tri", 1, paralagg.MCountAgg))
	p.Add(paralagg.R(
		paralagg.A("tri", paralagg.Const(0), paralagg.Const(1)),
		paralagg.A("edge", paralagg.Var("x"), paralagg.Var("y")),
		paralagg.A("edge", paralagg.Var("y"), paralagg.Var("z")),
		paralagg.A("edge", paralagg.Var("z"), paralagg.Var("x")),
	).Where(
		paralagg.Lt(paralagg.Var("x"), paralagg.Var("y")),
		paralagg.Lt(paralagg.Var("x"), paralagg.Var("z")),
	))
	return p
}

// RunTriangleCount executes the triangle count and returns the total.
func RunTriangleCount(g *graph.Graph, cfg paralagg.Config) (uint64, error) {
	var count uint64
	_, err := paralagg.Exec(TriangleCountProgram(), cfg,
		func(rk *paralagg.Rank) error {
			row := newRow()
			return rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
				emit(append(row, g.Edges[i].U, g.Edges[i].V))
			})
		},
		func(rk *paralagg.Rank) error {
			var local uint64
			if err := rk.Each("tri", func(t paralagg.Tuple) { local = t[1] }); err != nil {
				return err
			}
			total := rk.Reduce(local, paralagg.OpMax)
			if rk.ID() == 0 {
				count = total
			}
			return nil
		})
	return count, err
}

// RefTriangleCount counts directed triangles x→y→z→x with x < y and x < z
// by brute force.
func RefTriangleCount(g *graph.Graph) uint64 {
	has := make(map[[2]uint64]bool, len(g.Edges))
	adj := make([][]uint64, g.Nodes)
	for _, e := range g.Edges {
		has[[2]uint64{e.U, e.V}] = true
		adj[e.U] = append(adj[e.U], e.V)
	}
	var n uint64
	for _, e := range g.Edges {
		x, y := e.U, e.V
		if x >= y {
			continue
		}
		for _, z := range adj[y] {
			if x < z && has[[2]uint64{z, x}] {
				n++
			}
		}
	}
	return n
}
