package main

import (
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
	"paralagg/internal/transport/tcp"
)

// scansPerExec is how many times an sssp op's inspect callback repeats the
// prefix top-10 read.
const scansPerExec = 5

// ranks is the world size of every workload: one rank goroutine per core of
// the 2-core benchmark box.
const ranks = 2

// opSample is what one closed-loop operation reports back to the harness.
type opSample struct {
	wall     time.Duration // the whole op, client side
	fixpoint time.Duration
	scan     time.Duration
	ok       bool

	// sssp ops: the Exec result and (tcp) the gang's summed wire counters.
	res *paralagg.Result
	net paralagg.NetStats

	// serve ops: the cycle's parts.
	insert, del time.Duration
	pointNS     float64 // burst wall ÷ burst size, mean of the cycle's two bursts
	insStats    paralagg.ApplyStats
	delStats    paralagg.ApplyStats

	attr attribution // traced ops only
}

// instance is one set-up workload: its op runs repeatedly against it.
type instance interface {
	// op runs one operation. An instance set up without a tracer runs with
	// Observer nil (the timed pass); one set up with the benchmark's tracer
	// records spans.
	op() (opSample, error)
	// prepare runs before every op, untimed and outside the allocation
	// accounting: it gives the next op fresh inputs (sssp-*) or, every so
	// often, compares the whole resident state with a from-scratch answer
	// (serve-mixed). It reports whether what it checked was correct.
	prepare() (bool, error)
	// probeInputs hands the layer probes the workload's own keys and tuples.
	probeInputs() probeInputs
	close() error
}

// probeInputs are captured from a workload so the layer probes run on its
// data, not on synthetic keys.
type probeInputs struct {
	g       *graph.Graph
	sources []uint64
	subs    int
	ref     map[[2]uint64]uint64 // converged spath: (src,dst) → dist
	pool    [][]paralagg.Tuple   // seed-drawn shortcut batches for the engine probe
}

// ssspInstance is a one-shot SSSP workload: op = one Exec. Every op loads
// the same graph under a fresh vertex relabelling (see relabel), so one run's
// median is taken over many hash placements instead of resting on one.
type ssspInstance struct {
	base        *graph.Graph // reference labelling; ref is keyed by it
	baseSources []uint64
	g           *graph.Graph // base under the current relabelling: what the next op loads
	sources     []uint64
	rng         *rand.Rand
	subs        int
	overTCP     bool
	tr          *tracer

	ref      map[[2]uint64]uint64
	refCount int
	near     []paralagg.Tuple // every (source 0, dst, dist), base labels
	top      []paralagg.Tuple // reference top-10 of sources[0], current labels
	iters    int              // fixed by the warm-up; every rep must match
	pool     [][]paralagg.Tuple
}

// topSpec is the prefix top-10 read every workload issues: the ten nearest
// destinations of one source, ordered by distance.
func topSpec(src uint64) paralagg.QuerySpec {
	return paralagg.QuerySpec{Relation: "spath", Key: []paralagg.Value{src}, Limit: 10, OrderBy: 2}
}

// refTop computes the reference answer to topSpec from a distance map.
func refTop(ref map[[2]uint64]uint64, src uint64) []paralagg.Tuple {
	return topTen(fromSource(ref, src))
}

// fromSource lists every (src, dst, dist) of one source.
func fromSource(ref map[[2]uint64]uint64, src uint64) []paralagg.Tuple {
	var out []paralagg.Tuple
	for k, d := range ref {
		if k[0] == src {
			out = append(out, paralagg.Tuple{k[0], k[1], d})
		}
	}
	return out
}

// topTen sorts ts the way topSpec orders its answer and keeps ten.
func topTen(ts []paralagg.Tuple) []paralagg.Tuple {
	sortTop(ts)
	if len(ts) > 10 {
		ts = ts[:10]
	}
	return ts
}

// sortTop orders tuples the way a Limit/OrderBy=2 query does: by distance,
// ties broken lexicographically.
func sortTop(ts []paralagg.Tuple) {
	sort.Slice(ts, func(i, j int) bool {
		a, b := ts[i], ts[j]
		if a[2] != b[2] {
			return a[2] < b[2]
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		return a[1] < b[1]
	})
}

func sameTuples(a, b []paralagg.Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// relabel renames every vertex of g through perm. Topology and weights stay
// as generated, so every labelling poses exactly the same amount of work
// (same iterations, same Δ sizes, same tuple counts) and runs with different
// seeds are comparable; what a labelling moves is what the runtime's
// behaviour depends on for a fixed problem: which rank and sub-bucket each
// key hashes to, and the B-tree key order.
func relabel(g *graph.Graph, perm []int) {
	for i, e := range g.Edges {
		g.Edges[i].U, g.Edges[i].V = uint64(perm[e.U]), uint64(perm[e.V])
	}
}

// shortcutPool draws n batches of k shortcut edges from seed. A shortcut
// joins two nodes the graph does not already connect, so inserting it adds a
// fact and deleting it removes only that fact.
func shortcutPool(g *graph.Graph, n, k int, seed int64) [][]paralagg.Tuple {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	have := make(map[[2]uint64]bool, len(g.Edges))
	for _, e := range g.Edges {
		have[[2]uint64{e.U, e.V}] = true
	}
	pool := make([][]paralagg.Tuple, n)
	for b := range pool {
		used := map[[2]uint64]bool{}
		for len(pool[b]) < k {
			u, v := uint64(rng.Intn(g.Nodes)), uint64(rng.Intn(g.Nodes))
			p := [2]uint64{u, v}
			if u == v || have[p] || used[p] {
				continue
			}
			used[p] = true
			pool[b] = append(pool[b], paralagg.Tuple{u, v, uint64(rng.Intn(int(g.MaxWeight))) + 1})
		}
	}
	return pool
}

// setupSSSP builds the inputs of one sssp-* workload (a fixed graph, its
// vertices relabelled from seed), computes the reference, and runs one fully
// verified warm-up Exec.
func setupSSSP(name string, seed int64, sz sizes, tr *tracer) (instance, error) {
	w := &ssspInstance{subs: 1, overTCP: name == "sssp-tcp", tr: tr, rng: rand.New(rand.NewSource(seed))}
	switch name {
	case "sssp-chain", "sssp-tcp":
		// Same graph for both, so their ratio isolates the transport.
		w.base = graph.Grid("chain", sz.chainRows, sz.chainCols, 8, 11)
		w.baseSources = []uint64{0}
	case "sssp-skew":
		if sz.skewSmoke {
			w.base = graph.Social("skew-smoke", 8, 2400, 2, 200, 10, 42)
		} else {
			g, err := graph.Load("twitter-sim")
			if err != nil {
				return nil, err
			}
			w.base = g
		}
		w.baseSources = w.base.Sources(2, 1)
		w.subs = 8
	default:
		return nil, fmt.Errorf("unknown sssp workload %q", name)
	}
	perm := w.rng.Perm(w.base.Nodes)
	relabel(w.base, perm)
	for i, s := range w.baseSources {
		w.baseSources[i] = uint64(perm[s])
	}
	w.ref, w.refCount = queries.RefSSSPMulti(w.base, w.baseSources)
	w.near = fromSource(w.ref, w.baseSources[0])
	w.pool = shortcutPool(w.base, sz.poolBatches, sz.batchEdges, seed)

	// The warm-up loads the base labelling itself, and is also the
	// once-per-run comparison of every (src,dst,dist).
	w.g = &graph.Graph{Name: w.base.Name, Nodes: w.base.Nodes, MaxWeight: w.base.MaxWeight,
		Edges: append([]graph.Edge(nil), w.base.Edges...)}
	w.sources = append([]uint64(nil), w.baseSources...)
	w.top = topTen(append([]paralagg.Tuple(nil), w.near...))
	s, all, err := w.exec(true)
	if err != nil {
		return nil, err
	}
	if !s.ok {
		return nil, fmt.Errorf("%s: warm-up Exec failed its checks", name)
	}
	if len(all) != len(w.ref) {
		return nil, fmt.Errorf("%s: %d spath tuples, reference has %d", name, len(all), len(w.ref))
	}
	for _, t := range all {
		if d, ok := w.ref[[2]uint64{t[0], t[1]}]; !ok || d != t[2] {
			return nil, fmt.Errorf("%s: spath%v disagrees with reference (%d, present %v)", name, t, d, ok)
		}
	}
	w.iters = s.res.Iterations
	return w, nil
}

func (w *ssspInstance) probeInputs() probeInputs {
	return probeInputs{g: w.base, sources: w.baseSources, subs: w.subs, ref: w.ref, pool: w.pool}
}

func (w *ssspInstance) close() error { return nil }

func (w *ssspInstance) op() (opSample, error) {
	s, _, err := w.exec(false)
	return s, err
}

// prepare relabels the graph afresh for the next Exec and carries the
// reference top-10 over to the new labels. (Which ten tuples win a distance
// tie at the cut depends on the labels, so it is recomputed from every
// destination of the source, not mapped from the old answer.)
func (w *ssspInstance) prepare() (bool, error) {
	perm := w.rng.Perm(w.base.Nodes)
	copy(w.g.Edges, w.base.Edges)
	relabel(w.g, perm)
	for i, s := range w.baseSources {
		w.sources[i] = uint64(perm[s])
	}
	cur := make([]paralagg.Tuple, len(w.near))
	for i, t := range w.near {
		cur[i] = paralagg.Tuple{uint64(perm[t[0]]), uint64(perm[t[1]]), t[2]}
	}
	w.top = topTen(cur)
	return true, nil
}

// exec runs one Exec (in-process, or one per rank over a loopback TCP gang)
// with an inspect callback that performs the prefix top-10 read and, when
// dump is set, collects every spath tuple. It checks Counts, Iterations and
// the top-10 answer on every call.
func (w *ssspInstance) exec(dump bool) (opSample, []paralagg.Tuple, error) {
	tr := w.tr
	var (
		mu      sync.Mutex
		top     []paralagg.Tuple
		all     []paralagg.Tuple
		scanDur time.Duration
	)
	load := func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, w.g, w.sources) }
	inspect := func(rk *paralagg.Rank) error {
		// Line the ranks up first, so the timed read does not include
		// waiting for a peer still finishing its fixpoint bookkeeping.
		// The read is repeated and the op reports the median: a single
		// sub-millisecond call right after the fixpoint is mostly noise.
		var qr paralagg.QueryResult
		var ds [scansPerExec]float64
		for i := range ds {
			rk.Reduce(0, paralagg.OpSum)
			t0 := time.Now()
			var err error
			if qr, err = rk.Query(topSpec(w.sources[0])); err != nil {
				return err
			}
			ds[i] = float64(time.Since(t0))
		}
		d := time.Duration(median(ds[:]))
		var local []paralagg.Tuple
		if dump {
			full, err := rk.Query(paralagg.QuerySpec{Relation: "spath"})
			if err != nil {
				return err
			}
			local = full.Tuples
		}
		mu.Lock()
		top = append(top, qr.Tuples...)
		all = append(all, local...)
		// The slowest rank's time is the collective's: which rank holds the
		// source's tuples changes with every relabelling, and one rank's
		// clock would read the walk on some ops and the wait on others.
		scanDur = max(scanDur, d)
		mu.Unlock()
		return nil
	}
	cfg := paralagg.Config{Ranks: ranks, Subs: w.subs}
	if tr != nil {
		cfg.Observer = tr
	}

	var s opSample
	var err error
	run := func() {
		if w.overTCP {
			s.res, s.net, err = execGang(cfg, load, inspect)
		} else {
			s.res, err = paralagg.Exec(queries.SSSPProgram(), cfg, load, inspect)
		}
	}
	if tr != nil {
		s.wall, s.attr = tr.op("Exec", run)
	} else {
		t0 := time.Now()
		run()
		s.wall = time.Since(t0)
	}
	if err != nil {
		return s, nil, err
	}
	s.fixpoint, s.scan = s.wall, scanDur

	s.ok = sameTuples(topTen(top), w.top) &&
		s.res.Counts["spath"] == uint64(w.refCount) &&
		s.res.Counts["edge"] == uint64(len(w.g.Edges)) &&
		(w.iters == 0 || s.res.Iterations == w.iters)
	return s, all, nil
}

// execGang runs one Exec per rank over a fresh 2-rank loopback gang of
// in-process tcp.Transports with the default tcp.Config (what
// `paralagg -transport=tcp -spawn 2` gives a user). The caller's timer covers
// binding the listeners and tcp.New of the first transport through Close of
// the last. It returns rank 0's Result and the gang's summed
// Transport.Net() counters.
func execGang(cfg paralagg.Config, load, inspect func(*paralagg.Rank) error) (*paralagg.Result, paralagg.NetStats, error) {
	var nets paralagg.NetStats
	trs, err := newGang(ranks)
	if err != nil {
		return nil, nets, err
	}
	results := make([]*paralagg.Result, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *tcp.Transport) {
			defer wg.Done()
			c := cfg
			c.Ranks, c.Transport = 0, tr
			results[i], errs[i] = paralagg.Exec(queries.SSSPProgram(), c, load, inspect)
		}(i, tr)
	}
	wg.Wait()
	for _, tr := range trs {
		nets = nets.Add(tr.Net())
		if cerr := tr.Close(); cerr != nil && errs[0] == nil {
			errs[0] = cerr
		}
	}
	for r, e := range errs {
		if e != nil {
			return nil, nets, fmt.Errorf("gang rank %d: %w", r, e)
		}
	}
	return results[0], nets, nil
}

// newGang binds n loopback listeners and builds one default-config
// tcp.Transport per rank on them. The caller Starts (via Exec or directly)
// and Closes every transport.
func newGang(n int) ([]*tcp.Transport, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, err
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	trs := make([]*tcp.Transport, n)
	for i := range trs {
		tr, err := tcp.New(tcp.Config{Rank: i, Peers: addrs, Listener: lns[i], Seed: int64(i)})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			for _, t := range trs[:i] {
				t.Close()
			}
			return nil, err
		}
		trs[i] = tr
	}
	return trs, nil
}
