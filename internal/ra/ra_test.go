package ra

import (
	"fmt"
	"math/rand"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// --- tiny deterministic graphs and sequential references ---

type edge struct{ u, v, w uint64 }

// unpermute maps a stored tuple of ix back to canonical column order.
func unpermute(ix *relation.Index, stored tuple.Tuple) tuple.Tuple {
	out := make(tuple.Tuple, len(ix.Perm))
	for i, c := range ix.Perm {
		out[c] = stored[i]
	}
	return out
}

func randGraph(nodes, edges int, seed int64, maxW uint64) []edge {
	rng := rand.New(rand.NewSource(seed))
	out := make([]edge, 0, edges)
	seen := map[[2]uint64]bool{}
	for len(out) < edges {
		u, v := uint64(rng.Intn(nodes)), uint64(rng.Intn(nodes))
		if u == v || seen[[2]uint64{u, v}] {
			continue
		}
		seen[[2]uint64{u, v}] = true
		w := uint64(1)
		if maxW > 1 {
			w = uint64(rng.Intn(int(maxW))) + 1
		}
		out = append(out, edge{u, v, w})
	}
	return out
}

// refClosure computes reachability pairs by BFS from every node.
func refClosure(nodes int, es []edge) map[[2]uint64]bool {
	adj := make([][]uint64, nodes)
	for _, e := range es {
		adj[e.u] = append(adj[e.u], e.v)
	}
	out := map[[2]uint64]bool{}
	for s := 0; s < nodes; s++ {
		visited := make([]bool, nodes)
		queue := []uint64{uint64(s)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !visited[v] {
					visited[v] = true
					out[[2]uint64{uint64(s), v}] = true
					queue = append(queue, v)
				}
			}
		}
	}
	return out
}

// refSSSP is Dijkstra from src (O(V^2), fine for tests).
func refSSSP(nodes int, es []edge, src uint64) map[uint64]uint64 {
	const inf = ^uint64(0)
	adj := make([][]edge, nodes)
	for _, e := range es {
		adj[e.u] = append(adj[e.u], e)
	}
	dist := make([]uint64, nodes)
	done := make([]bool, nodes)
	for i := range dist {
		dist[i] = inf
	}
	dist[src] = 0
	for {
		u, best := -1, inf
		for i, d := range dist {
			if !done[i] && d < best {
				u, best = i, d
			}
		}
		if u < 0 {
			break
		}
		done[u] = true
		for _, e := range adj[u] {
			if d := dist[u] + e.w; d < dist[e.v] {
				dist[e.v] = d
			}
		}
	}
	out := map[uint64]uint64{}
	for i, d := range dist {
		if d != inf {
			out[uint64(i)] = d
		}
	}
	return out
}

// refCC labels every node with the minimum node id of its weakly connected
// component.
func refCC(nodes int, es []edge) map[uint64]uint64 {
	parent := make([]int, nodes)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, e := range es {
		a, b := find(int(e.u)), find(int(e.v))
		if a != b {
			parent[a] = b
		}
	}
	min := map[int]uint64{}
	for i := 0; i < nodes; i++ {
		r := find(i)
		if m, ok := min[r]; !ok || uint64(i) < m {
			min[r] = uint64(i)
		}
	}
	out := map[uint64]uint64{}
	for i := 0; i < nodes; i++ {
		out[uint64(i)] = min[find(i)]
	}
	return out
}

// --- hand-compiled pipelines (the declarative layer does this in core) ---

// runTC computes transitive closure over the kernel layer and verifies it
// against the BFS reference, returning the iteration count.
func runTC(t *testing.T, ranks, nodes int, es []edge, subs int, mode PlanMode) {
	t.Helper()
	want := refClosure(nodes, es)
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		edgeRel, err := relation.New(relation.Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		pathRel, err := relation.New(relation.Schema{Name: "path", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		// path joined on its second column: reversed replica.
		pathRev, err := pathRel.AddIndex([]int{1, 0}, 1)
		if err != nil {
			return err
		}
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v})
		})

		copyRule := &Copy{
			Name: "path(x,y) <- edge(x,y)", Src: edgeRel.Canonical(), SrcRel: edgeRel, Head: pathRel,
			Emit: func(src, _, out tuple.Tuple) bool {
				return copy(out, tuple.Tuple{src[0], src[1]}) > 0
			},
		}
		joinRule := &Join{
			Name: "path(x,z) <- path(x,y), edge(y,z)",
			Left: pathRev, LeftRel: pathRel,
			Right: edgeRel.Canonical(), RightRel: edgeRel,
			Head: pathRel, JK: 1,
			// left stored as (y,x), right as (y,z) -> head (x,z).
			Emit: func(l, r, out tuple.Tuple) bool {
				return copy(out, tuple.Tuple{l[1], r[1]}) > 0
			},
		}
		fx := NewFixpoint(c, mc, copyRule, joinRule)
		fx.Run(Options{Plan: mode})

		// Validate: count matches and every local tuple is in the reference.
		var local, wrong uint64
		pathRel.Canonical().Full().Ascend(func(tt tuple.Tuple) bool {
			local++
			if !want[[2]uint64{tt[0], tt[1]}] {
				wrong++
			}
			return true
		})
		if g := c.Allreduce(wrong, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d tuples not in reference closure", g)
		}
		if g := c.Allreduce(local, mpi.OpSum); g != uint64(len(want)) {
			return fmt.Errorf("closure size %d, want %d", g, len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTransitiveClosureChain(t *testing.T) {
	var es []edge
	for i := 0; i < 20; i++ {
		es = append(es, edge{uint64(i), uint64(i + 1), 1})
	}
	runTC(t, 4, 21, es, 1, PlanDynamic)
}

func TestTransitiveClosureRandomAllModes(t *testing.T) {
	es := randGraph(60, 180, 7, 1)
	for _, mode := range []PlanMode{PlanDynamic, PlanStaticLeft, PlanStaticRight, PlanAntiDynamic} {
		runTC(t, 3, 60, es, 1, mode)
	}
}

func TestTransitiveClosureSubBuckets(t *testing.T) {
	es := randGraph(50, 150, 9, 1)
	for _, subs := range []int{1, 2, 8} {
		runTC(t, 4, 50, es, subs, PlanDynamic)
	}
	// Also with a single rank.
	runTC(t, 1, 50, es, 4, PlanDynamic)
}

// runSSSP computes single-source shortest paths via recursive aggregation
// and verifies against Dijkstra.
func runSSSP(t *testing.T, ranks, nodes int, es []edge, src uint64, subs int, mode PlanMode) int {
	t.Helper()
	want := refSSSP(nodes, es, src)
	iters := 0
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		edgeRel, err := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		sp, err := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		// spath joined on its "to" column (used as mid).
		spMid, err := sp.AddIndex([]int{1, 0, 2}, 1)
		if err != nil {
			return err
		}
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v, es[i].w})
		})
		// Seed fact spath(src, src, 0) offered by rank 0.
		seed := tuple.NewBuffer(3, 1)
		if c.Rank() == 0 {
			seed.Append(tuple.Tuple{src, src, 0})
		}
		sp.LoadFacts(seed)

		join := &Join{
			Name: "spath(f,t,min(l+w)) <- spath(f,m,l), edge(m,t,w)",
			Left: spMid, LeftRel: sp,
			Right: edgeRel.Canonical(), RightRel: edgeRel,
			Head: sp, JK: 1,
			// left stored (m,f,l), right (m,t,w) -> head (f,t,l+w).
			Emit: func(l, r, out tuple.Tuple) bool {
				return copy(out, tuple.Tuple{l[1], r[1], l[2] + r[2]}) > 0
			},
		}
		fx := NewFixpoint(c, mc, join)
		n := fx.Run(Options{Plan: mode})
		if c.Rank() == 0 {
			iters = n
		}

		// Validate against Dijkstra.
		var local, wrong uint64
		sp.EachAcc(func(tt tuple.Tuple) {
			local++
			d, ok := want[tt[1]]
			if tt[0] != src || !ok || d != tt[2] {
				wrong++
			}
		})
		if g := c.Allreduce(wrong, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d wrong distances", g)
		}
		if g := c.Allreduce(local, mpi.OpSum); g != uint64(len(want)) {
			return fmt.Errorf("reached %d nodes, want %d", g, len(want))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return iters
}

func TestSSSPLine(t *testing.T) {
	var es []edge
	for i := 0; i < 15; i++ {
		es = append(es, edge{uint64(i), uint64(i + 1), uint64(i + 1)})
	}
	runSSSP(t, 3, 16, es, 0, 1, PlanDynamic)
}

func TestSSSPRandomWeighted(t *testing.T) {
	es := randGraph(80, 400, 21, 9)
	for _, ranks := range []int{1, 2, 5} {
		runSSSP(t, ranks, 80, es, 3, 1, PlanDynamic)
	}
}

func TestSSSPAllPlanModesAgree(t *testing.T) {
	es := randGraph(50, 250, 33, 5)
	for _, mode := range []PlanMode{PlanDynamic, PlanStaticLeft, PlanStaticRight, PlanAntiDynamic} {
		runSSSP(t, 4, 50, es, 7, 1, mode)
	}
}

func TestSSSPSubBucketsAgree(t *testing.T) {
	es := randGraph(50, 250, 35, 5)
	for _, subs := range []int{1, 2, 8} {
		runSSSP(t, 4, 50, es, 2, subs, PlanDynamic)
	}
}

// TestSSSPShorterPathWins uses a graph where the direct edge is worse than
// a two-hop path, confirming aggregation collapses to the minimum.
func TestSSSPShorterPathWins(t *testing.T) {
	es := []edge{{0, 1, 10}, {0, 2, 1}, {2, 1, 2}}
	runSSSP(t, 2, 3, es, 0, 1, PlanDynamic)
}

// runCC computes connected components (min label propagation) over
// undirected edges and verifies against union-find.
func runCC(t *testing.T, ranks, nodes int, es []edge, subs int, mode PlanMode) {
	t.Helper()
	want := refCC(nodes, es)
	w := mpi.NewWorld(ranks)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		edgeRel, err := relation.New(relation.Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		cc, err := relation.New(relation.Schema{Name: "cc", Arity: 2, Indep: 1, Key: 1, Agg: lattice.Min{}}, c, mc, relation.Config{Subs: subs})
		if err != nil {
			return err
		}
		ccByNode, err := cc.AddIndex([]int{0, 1}, 1) // the canonical index the join reads
		if err != nil {
			return err
		}
		// Undirected: load both directions.
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v})
			emit(tuple.Tuple{es[i].v, es[i].u})
		})
		// Seed: every node labels itself.
		seed := tuple.NewBuffer(2, nodes/ranks+1)
		for n := c.Rank(); n < nodes; n += c.Size() {
			seed.Append(tuple.Tuple{uint64(n), uint64(n)})
		}
		cc.LoadFacts(seed)

		join := &Join{
			Name: "cc(y,min(z)) <- cc(x,z), edge(x,y)",
			Left: ccByNode, LeftRel: cc,
			Right: edgeRel.Canonical(), RightRel: edgeRel,
			Head: cc, JK: 1,
			// left (x,z), right (x,y) -> head (y,z).
			Emit: func(l, r, out tuple.Tuple) bool {
				return copy(out, tuple.Tuple{r[1], l[1]}) > 0
			},
		}
		fx := NewFixpoint(c, mc, join)
		fx.Run(Options{Plan: mode})

		var local, wrong uint64
		cc.EachAcc(func(tt tuple.Tuple) {
			local++
			if want[tt[0]] != tt[1] {
				wrong++
			}
		})
		if g := c.Allreduce(wrong, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d wrong labels", g)
		}
		if g := c.Allreduce(local, mpi.OpSum); g != uint64(nodes) {
			return fmt.Errorf("labeled %d nodes, want %d", g, nodes)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCCTwoComponents(t *testing.T) {
	es := []edge{{0, 1, 1}, {1, 2, 1}, {3, 4, 1}}
	runCC(t, 3, 5, es, 1, PlanDynamic)
}

func TestCCRandom(t *testing.T) {
	es := randGraph(100, 140, 55, 1)
	for _, ranks := range []int{1, 4} {
		runCC(t, ranks, 100, es, 1, PlanDynamic)
	}
}

func TestCCSubBuckets(t *testing.T) {
	es := randGraph(60, 90, 77, 1)
	runCC(t, 4, 60, es, 8, PlanDynamic)
}

// TestFixpointMaxIters confirms the iteration bound halts a divergent-ish
// (long) computation early.
func TestFixpointMaxIters(t *testing.T) {
	var es []edge
	for i := 0; i < 50; i++ {
		es = append(es, edge{uint64(i), uint64(i + 1), 1})
	}
	w := mpi.NewWorld(2)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(2)
		edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
		pathRel, _ := relation.New(relation.Schema{Name: "path", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
		pathRev, _ := pathRel.AddIndex([]int{1, 0}, 1)
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v})
		})
		fx := NewFixpoint(c, mc,
			&Copy{Src: edgeRel.Canonical(), SrcRel: edgeRel, Head: pathRel,
				Emit: func(s, _, out tuple.Tuple) bool { return copy(out, s) > 0 }},
			&Join{Left: pathRev, LeftRel: pathRel, Right: edgeRel.Canonical(), RightRel: edgeRel,
				Head: pathRel, JK: 1,
				Emit: func(l, r, out tuple.Tuple) bool { return copy(out, tuple.Tuple{l[1], r[1]}) > 0 }},
		)
		n := fx.Run(Options{Plan: PlanDynamic, MaxIters: 5})
		if n != 5 {
			return fmt.Errorf("ran %d iterations, want 5", n)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestResetDeltaEnablesNextStratum checks the stratum hand-off: a second
// stratum copies a finished relation into a fresh one.
func TestResetDeltaEnablesNextStratum(t *testing.T) {
	es := randGraph(30, 60, 99, 4)
	w := mpi.NewWorld(3)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(3)
		edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{})
		sp, _ := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, relation.Config{})
		spMid, _ := sp.AddIndex([]int{1, 0, 2}, 1)
		spAll, _ := sp.AddIndex([]int{0, 1, 2}, 2) // the canonical index stratum 2 copies from
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v, es[i].w})
		})
		seed := tuple.NewBuffer(3, 1)
		if c.Rank() == 0 {
			seed.Append(tuple.Tuple{0, 0, 0})
		}
		sp.LoadFacts(seed)
		fx := NewFixpoint(c, mc, &Join{
			Left: spMid, LeftRel: sp, Right: edgeRel.Canonical(), RightRel: edgeRel,
			Head: sp, JK: 1,
			Emit: func(l, r, out tuple.Tuple) bool {
				return copy(out, tuple.Tuple{l[1], r[1], l[2] + r[2]}) > 0
			}})
		fx.Run(Options{Plan: PlanDynamic})

		// Stratum 2: lsp(MAX d) over all spath tuples.
		lsp, _ := relation.New(relation.Schema{Name: "lsp", Arity: 2, Indep: 1, Key: 1, Agg: lattice.Max{}}, c, mc, relation.Config{})
		sp.ResetDelta()
		if sp.ChangedLast() == 0 {
			return fmt.Errorf("ResetDelta left changed count at zero")
		}
		fx2 := NewFixpoint(c, mc, &Copy{
			Src: spAll, SrcRel: sp, Head: lsp,
			Emit: func(s, _, out tuple.Tuple) bool {
				return copy(out, tuple.Tuple{0, s[2]}) > 0
			}})
		fx2.Run(Options{Plan: PlanDynamic})

		// Reference: max over Dijkstra distances.
		want := uint64(0)
		for _, d := range refSSSP(30, es, 0) {
			if d > want {
				want = d
			}
		}
		var local uint64
		lsp.EachAcc(func(tt tuple.Tuple) { local = uint64(tt[1]) })
		if g := c.Allreduce(local, mpi.OpMax); g != want {
			return fmt.Errorf("lsp = %d, want %d", g, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBulkLoadDeltaIsAViewOfFull: after LoadFacts, and again after
// ResetDelta, Δ of every index is FULL itself — VDelta reads exactly what
// VFull reads and FULL−Δ reads nothing, on every rank, one of which holds
// an empty shard of "lonely" — and the snapshot still lists Δ's tuples word
// for word as a copy of FULL would. The next pass gives Δ a run of its own
// that holds only what that pass changed.
func TestBulkLoadDeltaIsAViewOfFull(t *testing.T) {
	const ranks = 2
	err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{Subs: 2})
		edgeRel.AddIndex([]int{1, 0, 2}, 1)
		sp, _ := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}}, c, mc, relation.Config{})
		sp.AddIndex([]int{0, 1, 2}, 1)
		lonely, _ := relation.New(relation.Schema{Name: "lonely", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
		rels := []*relation.Relation{edgeRel, sp, lonely}

		es := randGraph(40, 120, 5, 9)
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) { emit(tuple.Tuple{es[i].u, es[i].v, es[i].w}) })
		sp.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) { emit(tuple.Tuple{es[i].u, es[i].v, es[i].w}) })
		homes := lonely.Canonical().HomeRanks
		lonely.LoadShare(200, func(i int, emit func(tuple.Tuple)) {
			t := tuple.Tuple{tuple.Value(i), 1}
			if h := homes(t.HashPrefix(1)); len(h) == 1 && h[0] == 0 {
				emit(t)
			}
		})
		if n := lonely.Canonical().Full().Len(); (n == 0) != (c.Rank() == 1) {
			return fmt.Errorf("rank %d holds %d lonely tuples; want them all on rank 0", c.Rank(), n)
		}

		scan := func(ix *relation.Index, v Version) []tuple.Tuple {
			var out []tuple.Tuple
			scanVersion(ix, v, func(t tuple.Tuple) bool { out = append(out, t.Clone()); return true })
			return out
		}
		probe := func(ix *relation.Index, v Version, key tuple.Tuple) int {
			n := 0
			probeVersion(ix, v, key, func(tuple.Tuple) bool { n++; return true })
			return n
		}
		viewOfFull := func(stage string) error {
			for _, r := range rels {
				for x, ix := range r.Indexes() {
					where := fmt.Sprintf("%s: rank %d %s index %d", stage, c.Rank(), r.Name, x)
					full, delta := scan(ix, VFull), scan(ix, VDelta)
					if fmt.Sprint(full) != fmt.Sprint(delta) || versionLen(ix, VDelta) != versionLen(ix, VFull) {
						return fmt.Errorf("%s: VDelta reads %d tuples, VFull %d", where, len(delta), len(full))
					}
					if n := len(scan(ix, VFullMinusDelta)); n != 0 || versionLen(ix, VFullMinusDelta) != 0 {
						return fmt.Errorf("%s: FULL−Δ reads %d tuples, length %d", where, n, versionLen(ix, VFullMinusDelta))
					}
					for _, tup := range full {
						key := tup[:ix.JK]
						if probe(ix, VDelta, key) != probe(ix, VFull, key) || probe(ix, VFullMinusDelta, key) != 0 {
							return fmt.Errorf("%s: probe of %v disagrees across versions", where, key)
						}
					}
				}
				// The layout: subs, changedLast, deltaCount, nIndexes, then
				// per index FULL's run and Δ's run, each behind its count.
				words := r.SnapshotWords()
				off := 4
				for x := 0; x < int(words[3]); x++ {
					n := int(words[off]) * r.Arity
					fullRun := words[off+1 : off+1+n]
					off += 1 + n
					m := int(words[off]) * r.Arity
					if fmt.Sprint(words[off+1:off+1+m]) != fmt.Sprint(fullRun) {
						return fmt.Errorf("%s: rank %d %s index %d snapshots a Δ run that is not FULL's", stage, c.Rank(), r.Name, x)
					}
					off += 1 + m
				}
			}
			return nil
		}
		if err := viewOfFull("after LoadFacts"); err != nil {
			return err
		}
		for _, r := range rels {
			r.Materialize(1, nil, false) // Δ consumed: empty, a tree of its own
			r.ResetDelta()
		}
		if err := viewOfFull("after ResetDelta"); err != nil {
			return err
		}

		fresh := tuple.NewBuffer(3, 1)
		if c.Rank() == 0 {
			fresh.Append(tuple.Tuple{1000, 1001, 7})
		}
		for _, r := range rels {
			buf := fresh
			if r == lonely {
				buf = nil
			}
			r.Materialize(2, buf, false)
			for x, ix := range r.Indexes() {
				if ix.Delta().IsFull() {
					return fmt.Errorf("after the next pass: rank %d %s index %d: Δ is still FULL", c.Rank(), r.Name, x)
				}
				for _, d := range scan(ix, VDelta) {
					if r == lonely || !unpermute(ix, d).Equal(tuple.Tuple{1000, 1001, 7}) {
						return fmt.Errorf("after the next pass: rank %d %s index %d: Δ holds %v", c.Rank(), r.Name, x, d)
					}
				}
			}
			if got := c.Allreduce(uint64(r.LocalDeltaCount()), mpi.OpSum); (got == 1) != (r != lonely) {
				return fmt.Errorf("after the next pass: %s Δ holds %d tuples globally", r.Name, got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// skewedSSSP builds SSSP from node 0 on a hub-skewed graph (node 0 fans out
// to every other node, plus a random mesh) with both relations at Subs 1,
// and returns the fixpoint, spath, the join, and Dijkstra's distances.
func skewedSSSP(c *mpi.Comm, mc *metrics.Collector) (*Fixpoint, *relation.Relation, *Join, map[uint64]uint64, error) {
	var es []edge
	for i := 1; i <= 60; i++ {
		es = append(es, edge{0, uint64(i), uint64(i%5 + 1)})
	}
	es = append(es, randGraph(61, 120, 3, 5)...)
	want := refSSSP(61, es, 0)
	edgeRel, err := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{Subs: 1})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	sp, err := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, relation.Config{Subs: 1})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	spMid, err := sp.AddIndex([]int{1, 0, 2}, 1)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	// Dedup edges: randGraph may duplicate a star edge.
	seen := map[[2]uint64]bool{}
	var uniq []edge
	for _, e := range es {
		if !seen[[2]uint64{e.u, e.v}] {
			seen[[2]uint64{e.u, e.v}] = true
			uniq = append(uniq, e)
		}
	}
	edgeRel.LoadShare(len(uniq), func(i int, emit func(tuple.Tuple)) {
		emit(tuple.Tuple{uniq[i].u, uniq[i].v, uniq[i].w})
	})
	seed := tuple.NewBuffer(3, 1)
	if c.Rank() == 0 {
		seed.Append(tuple.Tuple{0, 0, 0})
	}
	sp.LoadFacts(seed)
	join := &Join{
		Left: spMid, LeftRel: sp, Right: edgeRel.Canonical(), RightRel: edgeRel,
		Head: sp, JK: 1,
		Emit: func(l, r, out tuple.Tuple) bool {
			return copy(out, tuple.Tuple{l[1], r[1], l[2] + r[2]}) > 0
		}}
	return NewFixpoint(c, mc, join), sp, join, want, nil
}

// checkDistances compares sp's global contents with Dijkstra's distances.
// Collective.
func checkDistances(c *mpi.Comm, sp *relation.Relation, want map[uint64]uint64) error {
	var wrong, count uint64
	sp.EachAcc(func(tt tuple.Tuple) {
		count++
		if d, ok := want[tt[1]]; !ok || d != tt[2] {
			wrong++
		}
	})
	if g := c.Allreduce(wrong, mpi.OpSum); g != 0 {
		return fmt.Errorf("%d wrong distances", g)
	}
	if g := c.Allreduce(count, mpi.OpSum); g != uint64(len(want)) {
		return fmt.Errorf("reached %d, want %d", g, len(want))
	}
	return nil
}

// TestCoPartitionFollowsPlacement checks the predicate that lets a join skip
// its vote and its intra-bucket exchange: true while both sides sit at
// Subs 1, before the run and after it, and at Subs 2 while neither side
// holds a heavy key; false once a load makes one of edge's keys heavy.
// Co-partitioned, the join never sends a message, and the answer is exact.
func TestCoPartitionFollowsPlacement(t *testing.T) {
	const ranks = 4
	mc := metrics.NewCollector(ranks)
	err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
		fx, sp, join, want, err := skewedSSSP(c, mc)
		if err != nil {
			return err
		}
		if !relation.CoPartitioned(join.Left, join.Right, join.JK) {
			return fmt.Errorf("not co-partitioned at Subs 1")
		}
		fx.Run(Options{Plan: PlanDynamic})
		if !relation.CoPartitioned(join.Left, join.Right, join.JK) {
			return fmt.Errorf("not co-partitioned after the run at Subs 1")
		}
		return checkDistances(c, sp, want)
	})
	if err != nil {
		t.Fatal(err)
	}
	if msgs := mc.BuildReport(metrics.DefaultCostModel).Phases[metrics.PhaseIntraBucket].Msgs; msgs > 0 {
		t.Fatalf("co-partitioned join sent %d intra-bucket messages", msgs)
	}

	err = mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		sp, _ := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 2, Agg: lattice.Min{}}, c, mc, relation.Config{Subs: 2})
		spMid, _ := sp.AddIndex([]int{1, 0, 2}, 1)
		edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1}, c, mc, relation.Config{Subs: 2})
		if !relation.CoPartitioned(spMid, edgeRel.Canonical(), 1) {
			return fmt.Errorf("not co-partitioned at Subs 2 with no heavy key")
		}
		edgeRel.LoadShare(1000, func(i int, emit func(tuple.Tuple)) { // key 0 holds half the edges
			emit(tuple.Tuple{tuple.Value(max(0, i-500)), tuple.Value(i), 1})
		})
		if relation.CoPartitioned(spMid, edgeRel.Canonical(), 1) {
			return fmt.Errorf("co-partitioned at Subs 2 with a heavy key")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAfterIterationHook counts iterations through the hook and checks that
// each call carries its own iteration's changed count, though the count is
// agreed one step later: a path relation gains every tuple exactly once, so
// the counts sum to its size, and the last one is zero.
func TestAfterIterationHook(t *testing.T) {
	var es []edge
	for i := 0; i < 10; i++ {
		es = append(es, edge{uint64(i), uint64(i + 1), 1})
	}
	w := mpi.NewWorld(2)
	err := w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(2)
		edgeRel, _ := relation.New(relation.Schema{Name: "edge", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
		pathRel, _ := relation.New(relation.Schema{Name: "path", Arity: 2, Indep: 2, Key: 1}, c, mc, relation.Config{})
		pathRev, _ := pathRel.AddIndex([]int{1, 0}, 1)
		edgeRel.LoadShare(len(es), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{es[i].u, es[i].v})
		})
		hookCalls, sum, last := 0, uint64(0), uint64(1)
		fx := NewFixpoint(c, mc,
			&Copy{Src: edgeRel.Canonical(), SrcRel: edgeRel, Head: pathRel,
				Emit: func(s, _, out tuple.Tuple) bool { return copy(out, s) > 0 }},
			&Join{Left: pathRev, LeftRel: pathRel, Right: edgeRel.Canonical(), RightRel: edgeRel,
				Head: pathRel, JK: 1,
				Emit: func(l, r, out tuple.Tuple) bool { return copy(out, tuple.Tuple{l[1], r[1]}) > 0 }},
		)
		n := fx.Run(Options{Plan: PlanDynamic, AfterIteration: func(iter int, changed uint64) {
			if iter != hookCalls {
				t.Errorf("hook iter %d, want %d", iter, hookCalls)
			}
			hookCalls++
			sum, last = sum+changed, changed
		}})
		if hookCalls != n {
			return fmt.Errorf("hook ran %d times for %d iterations", hookCalls, n)
		}
		if size := pathRel.GlobalFullCount(); sum != size || last != 0 {
			return fmt.Errorf("hook counts sum to %d, last %d; path holds %d", sum, last, size)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
