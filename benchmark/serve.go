package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"paralagg"
	"paralagg/internal/graph"
	"paralagg/internal/queries"
)

// epoch is one converged state a serving engine passes through, with the
// reference answers every read in that state is checked against.
type epoch struct {
	dist [][]uint64       // [source index][node] → distance (noDist = unreachable)
	top  []paralagg.Tuple // reference top-10 of sources[0]
}

const noDist = ^uint64(0)

func newEpoch(g *graph.Graph, sources []uint64) epoch {
	ref, _ := queries.RefSSSPMulti(g, sources)
	e := epoch{dist: make([][]uint64, len(sources)), top: refTop(ref, sources[0])}
	for i, s := range sources {
		e.dist[i] = make([]uint64, g.Nodes)
		for n := range e.dist[i] {
			e.dist[i][n] = noDist
			if d, ok := ref[[2]uint64{s, uint64(n)}]; ok {
				e.dist[i][n] = d
			}
		}
	}
	return e
}

// withEdges returns g plus the given (u,v,w) facts.
func withEdges(g *graph.Graph, extra []paralagg.Tuple) *graph.Graph {
	out := &graph.Graph{Name: g.Name, Nodes: g.Nodes, MaxWeight: g.MaxWeight}
	out.Edges = append(out.Edges, g.Edges...)
	for _, t := range extra {
		out.Edges = append(out.Edges, graph.Edge{U: t[0], V: t[1], W: t[2]})
	}
	return out
}

// replica is one resident engine of the serve-mixed workload with its own
// vertex labelling, mutation stream and pre-computed references.
type replica struct {
	g       *graph.Graph
	sources []uint64
	eng     *paralagg.Engine
	base    epoch
	pool    [][]paralagg.Tuple // shortcut batches, cycled through
	after   []epoch            // after[b] = base graph + pool[b]
	keys    [][2]uint64        // lookup stream: (source index, node), cycled through
	next    int                // cursor into keys
	turns   int                // cycles this replica has served
}

// serveInstance is the serve-mixed workload: op = one cycle against one of
// several resident engines, taken in turn. The engines hold the same grid
// under different vertex labellings (see relabel), so one run's median is
// taken over several hash placements and many mutation batches instead of
// resting on one placement.
type serveInstance struct {
	subs     int
	sz       sizes
	tr       *tracer // nil: the engines run with Observer nil
	replicas []*replica
	ref      map[[2]uint64]uint64 // replica 0's converged base state, for the probes
	cycle    int
	got      []uint64
}

// setupServe opens sz.replicas engines on a serveRows² grid, each relabelled
// and given shortcut and lookup streams drawn from seed, loads them,
// pre-computes the reference of every epoch the mutation streams visit, and
// runs a fully verified warm-up. With a tracer the engines are opened with
// it as Config.Observer and every Apply is recorded as a span.
func setupServe(seed int64, sz sizes, tr *tracer) (instance, error) {
	n := sz.serveRows
	w := &serveInstance{subs: 4, sz: sz, tr: tr, got: make([]uint64, sz.burst)}
	rng := rand.New(rand.NewSource(seed))
	var obs paralagg.Observer
	if tr != nil {
		obs = tr
	}
	for len(w.replicas) < sz.replicas {
		r := &replica{g: graph.Grid("serve", n, n, 8, 7)}
		perm := rng.Perm(r.g.Nodes)
		relabel(r.g, perm)
		r.sources = []uint64{uint64(perm[0]), uint64(perm[n*n/2+n/2])}
		r.base = newEpoch(r.g, r.sources)
		r.pool = shortcutPool(r.g, sz.poolBatches, sz.batchEdges, rng.Int63())
		r.after = make([]epoch, len(r.pool))
		for b, batch := range r.pool {
			r.after[b] = newEpoch(withEdges(r.g, batch), r.sources)
		}
		r.keys = make([][2]uint64, 16*sz.burst)
		for i := range r.keys {
			r.keys[i] = [2]uint64{uint64(rng.Intn(len(r.sources))), uint64(rng.Intn(r.g.Nodes))}
		}
		eng, err := openEngine(r.g, r.sources, w.subs, obs)
		if err != nil {
			w.close()
			return nil, err
		}
		r.eng = eng
		w.replicas = append(w.replicas, r)
	}
	w.ref, _ = queries.RefSSSPMulti(w.replicas[0].g, w.replicas[0].sources)

	// Warm-up: replica 0's two epochs compared against a from-scratch Exec,
	// then one checked cycle on every replica.
	ok, err := w.deepCheck(w.replicas[0])
	for i := 0; err == nil && ok && i < len(w.replicas); i++ {
		var s opSample
		s, err = w.op()
		ok = s.ok
	}
	if err == nil && !ok {
		err = fmt.Errorf("serve-mixed: warm-up failed its checks")
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// openEngine opens a resident SSSP engine and performs the initial load.
func openEngine(g *graph.Graph, sources []uint64, subs int, obs paralagg.Observer) (*paralagg.Engine, error) {
	eng, err := paralagg.Open(paralagg.Config{Ranks: ranks, Subs: subs, Observer: obs}, queries.SSSPProgram())
	if err != nil {
		return nil, err
	}
	_, err = eng.Apply(context.Background(), paralagg.Mutation{
		Load: func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, sources) },
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return eng, nil
}

func (w *serveInstance) probeInputs() probeInputs {
	r := w.replicas[0]
	return probeInputs{g: r.g, sources: r.sources, subs: w.subs, ref: w.ref, pool: r.pool}
}

func (w *serveInstance) close() error {
	var first error
	for _, r := range w.replicas {
		if err := r.eng.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// burst issues sz.burst point lookups back to back and returns the wall time
// per lookup. Answers are parked in w.got and compared after the timer
// stops, so checking does not bill the lookups.
func (w *serveInstance) burst(r *replica, ep epoch) (float64, time.Time, time.Time, bool, error) {
	ctx := context.Background()
	first := r.next
	key := make([]paralagg.Value, 2)
	t0 := time.Now()
	for i := 0; i < w.sz.burst; i++ {
		k := r.keys[(first+i)%len(r.keys)]
		key[0], key[1] = r.sources[k[0]], k[1]
		qr, err := r.eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: key})
		if err != nil {
			return 0, t0, t0, false, err
		}
		w.got[i] = noDist
		if qr.Found {
			w.got[i] = qr.Value[0]
		}
	}
	t1 := time.Now()
	r.next = (first + w.sz.burst) % len(r.keys)
	ok := true
	for i := 0; i < w.sz.burst; i++ {
		k := r.keys[(first+i)%len(r.keys)]
		if w.got[i] != ep.dist[k[0]][k[1]] {
			ok = false
		}
	}
	return float64(t1.Sub(t0).Nanoseconds()) / float64(w.sz.burst), t0, t1, ok, nil
}

// op runs one cycle on the next replica: insert a shortcut batch → lookup
// burst → prefix top-10 scan → delete the same batch → lookup burst. Every
// lookup and the scan are compared with the reference for their epoch.
func (w *serveInstance) op() (opSample, error) {
	ctx := context.Background()
	r := w.replicas[w.cycle%len(w.replicas)]
	w.cycle++
	b := r.turns % len(r.pool)
	r.turns++
	batch := map[string][]paralagg.Tuple{"edge": r.pool[b]}

	var s opSample
	var err error
	apply := func(name string, m paralagg.Mutation) (time.Duration, paralagg.ApplyStats) {
		var st paralagg.ApplyStats
		run := func() { st, err = r.eng.Apply(ctx, m) }
		if w.tr == nil {
			t0 := time.Now()
			run()
			return time.Since(t0), st
		}
		d, a := w.tr.op(name, run)
		s.attr.add(a)
		return d, st
	}

	start := time.Now()
	s.insert, s.insStats = apply("Apply.insert", paralagg.Mutation{Insert: batch})
	if err != nil {
		return s, err
	}
	p1, b0, b1, ok1, err := w.burst(r, r.after[b])
	if err != nil {
		return s, err
	}
	t0 := time.Now()
	qr, err := r.eng.Query(ctx, topSpec(r.sources[0]))
	t1 := time.Now()
	if err != nil {
		return s, err
	}
	s.del, s.delStats = apply("Apply.delete", paralagg.Mutation{Delete: batch})
	if err != nil {
		return s, err
	}
	p2, b2, b3, ok2, err := w.burst(r, r.base)
	if err != nil {
		return s, err
	}
	s.wall = time.Since(start)
	if w.tr != nil {
		w.tr.note("Query.point", b0, b1)
		w.tr.note("Query.scan", t0, t1)
		w.tr.note("Query.point", b2, b3)
	}
	s.scan = t1.Sub(t0)
	s.fixpoint = s.insert + s.del
	s.pointNS = (p1 + p2) / 2
	s.ok = ok1 && ok2 && sameTuples(qr.Tuples, r.after[b].top) &&
		s.insStats.Incremental && s.delStats.Incremental
	return s, nil
}

// prepare runs, every fullCheckEvery cycles, the whole-relation comparison
// on the replica whose turn is next.
func (w *serveInstance) prepare() (bool, error) {
	if w.cycle%w.sz.fullCheckEvery != 0 {
		return true, nil
	}
	return w.deepCheck(w.replicas[w.cycle%len(w.replicas)])
}

// deepCheck is an untimed verification cycle: it applies the replica's next
// batch, compares the whole resident spath relation with a from-scratch Exec
// over the mutated graph, deletes the batch, and compares again with a
// from-scratch Exec over the base graph.
func (w *serveInstance) deepCheck(r *replica) (bool, error) {
	ctx := context.Background()
	b := r.turns % len(r.pool)
	batch := map[string][]paralagg.Tuple{"edge": r.pool[b]}
	if _, err := r.eng.Apply(ctx, paralagg.Mutation{Insert: batch}); err != nil {
		return false, err
	}
	okIns, err := w.matchesScratch(r, withEdges(r.g, r.pool[b]))
	if err != nil {
		return false, err
	}
	if _, err := r.eng.Apply(ctx, paralagg.Mutation{Delete: batch}); err != nil {
		return false, err
	}
	okDel, err := w.matchesScratch(r, r.g)
	return okIns && okDel, err
}

// matchesScratch compares the replica's resident spath relation, tuple for
// tuple, with a from-scratch Exec over g.
func (w *serveInstance) matchesScratch(r *replica, g *graph.Graph) (bool, error) {
	var mu sync.Mutex
	collect := func(into map[[2]uint64]uint64) func(*paralagg.Rank) error {
		return func(rk *paralagg.Rank) error {
			qr, err := rk.Query(paralagg.QuerySpec{Relation: "spath"})
			if err != nil {
				return err
			}
			mu.Lock()
			for _, t := range qr.Tuples {
				into[[2]uint64{t[0], t[1]}] = t[2]
			}
			mu.Unlock()
			return nil
		}
	}
	resident, scratch := map[[2]uint64]uint64{}, map[[2]uint64]uint64{}
	if err := r.eng.Inspect(collect(resident)); err != nil {
		return false, err
	}
	_, err := paralagg.Exec(queries.SSSPProgram(), paralagg.Config{Ranks: ranks, Subs: w.subs},
		func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, r.sources) }, collect(scratch))
	if err != nil {
		return false, err
	}
	if len(resident) != len(scratch) {
		return false, nil
	}
	for k, d := range scratch {
		if rd, ok := resident[k]; !ok || rd != d {
			return false, nil
		}
	}
	return true, nil
}
