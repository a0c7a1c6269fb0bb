package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"paralagg"
	"paralagg/internal/btree"
	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/queries"
	"paralagg/internal/relation"
	"paralagg/internal/transport/tcp"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// The layer probes time calls into each module's public functions on the
// workload's own keys and tuples. They run after the traced pass and feed
// only per-layer metrics.

// ssspSource is the SSSP program in the textual dialect, for core.compile_us.
const ssspSource = `
.set edge 3 key=1
.agg spath 2 min
spath(F, T, add(L, W)) :- spath(F, M, L), edge(M, T, W).
`

// mallocs reads the process-wide cumulative allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// probeData flattens a workload's captured inputs into the shapes the
// storage probes consume, in a fixed order (map iteration is random).
type probeData struct {
	keys  []tuple.Tuple // spath independent keys (src,dst)
	spath []tuple.Tuple // converged (src,dst,dist)
	edges []tuple.Tuple // (u,v,w), shuffled
	heads []tuple.Tuple // distinct edge sources, as 1-column prefixes
}

func flatten(in probeInputs) probeData {
	var d probeData
	for k, dist := range in.ref {
		d.spath = append(d.spath, tuple.Tuple{k[0], k[1], dist})
	}
	sort.Slice(d.spath, func(i, j int) bool { return d.spath[i].Compare(d.spath[j]) < 0 })
	// Shuffle with a fixed seed: sorted insertion is a B-tree's best case.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(d.spath), func(i, j int) { d.spath[i], d.spath[j] = d.spath[j], d.spath[i] })
	for _, t := range d.spath {
		d.keys = append(d.keys, t[:2])
	}
	seen := map[uint64]bool{}
	for _, e := range in.g.Edges {
		d.edges = append(d.edges, tuple.Tuple{e.U, e.V, e.W})
		if !seen[e.U] {
			seen[e.U] = true
			d.heads = append(d.heads, tuple.Tuple{e.U})
		}
	}
	rng.Shuffle(len(d.edges), func(i, j int) { d.edges[i], d.edges[j] = d.edges[j], d.edges[i] })
	return d
}

func probeWordmap(d probeData, min time.Duration, out map[string]float64) {
	n := len(d.keys)
	var m *wordmap.Map
	out["wordmap.upsert_new_ns"] = timeRounds(n, min, func() {
		m = wordmap.New(2, 1)
		for _, k := range d.keys {
			v, _ := m.Upsert(k)
			v[0] = k[1]
		}
	})
	out["wordmap.upsert_hit_ns"] = timeRounds(n, min, func() {
		for _, k := range d.keys {
			v, _ := m.Upsert(k)
			v[0]++
		}
	})
	var sink uint64
	out["wordmap.get_ns"] = timeRounds(n, min, func() {
		for _, k := range d.keys {
			sink += m.Get(k)[0]
		}
	})
	_ = sink
}

func probeBtree(d probeData, min time.Duration, out map[string]float64) {
	n := len(d.edges)
	var t *btree.Tree
	build := func() {
		t = btree.New()
		for _, e := range d.edges {
			t.Insert(e)
		}
	}
	out["btree.insert_ns"] = timeRounds(n, min, build)
	hits := 0
	out["btree.has_ns"] = timeRounds(n, min, func() {
		for _, e := range d.edges {
			if t.Has(e) {
				hits++
			}
		}
	})
	// One prefix scan per distinct source walks every edge exactly once.
	out["btree.ascend_prefix_ns"] = timeRounds(n, min, func() {
		for _, h := range d.heads {
			t.AscendPrefix(h, func(tuple.Tuple) bool { hits++; return true })
		}
	})
	// Delete empties the tree, so each round rebuilds it off the clock.
	var per []float64
	start := time.Now()
	for len(per) < 5 || time.Since(start) < min {
		build()
		t0 := time.Now()
		for _, e := range d.edges {
			t.Delete(e)
		}
		per = append(per, since(t0, time.Nanosecond)/float64(n))
	}
	out["btree.delete_ns"] = median(per)
}

// share returns rank's stripe of ts as a buffer, with add added to the last
// column.
func share(ts []tuple.Tuple, rank, size int, add uint64) *tuple.Buffer {
	buf := tuple.NewBuffer(len(ts[0]), len(ts)/size+1)
	row := make(tuple.Tuple, len(ts[0]))
	for i := rank; i < len(ts); i += size {
		copy(row, ts[i])
		row[len(row)-1] += add
		buf.Append(row)
	}
	return buf
}

// probeRelation times the relation layer per tuple on a 2-rank in-process
// world, so routing and the exchange are included. Each round builds fresh
// relations: spath (aggregated, with the join index the SSSP rule adds) takes
// a pass of new keys, a pass of identical values, a pass of improvements, a
// lookup sweep and a bracketed DeleteBatch; edge (set) takes LoadFacts.
func probeRelation(d probeData, subs int, min time.Duration, out map[string]float64) error {
	const rounds = 5
	names := []string{"relation.materialize_new_ns", "relation.materialize_hit_ns",
		"relation.materialize_improve_ns", "relation.lookup_ns", "relation.delete_batch_ns",
		"relation.load_facts_ns", "relation.materialize_allocs"}
	samples := map[string][]float64{}
	start := time.Now()
	for r := 0; r < rounds || time.Since(start) < min; r++ {
		world := mpi.NewWorld(ranks)
		mc := metrics.NewCollector(ranks)
		var got [7]float64
		err := world.Run(func(c *mpi.Comm) error {
			sp, err := relation.New(relation.Schema{Name: "spath", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}},
				c, mc, relation.Config{Subs: subs})
			if err != nil {
				return err
			}
			if _, err := sp.AddIndex([]int{1, 0, 2}, 1); err != nil {
				return err
			}
			ed, err := relation.New(relation.Schema{Name: "edge", Arity: 3, Indep: 3, Key: 1},
				c, mc, relation.Config{Subs: subs})
			if err != nil {
				return err
			}
			worse := share(d.spath, c.Rank(), ranks, 1)
			exact := share(d.spath, c.Rank(), ranks, 0)
			facts := share(d.edges, c.Rank(), ranks, 0)
			// step times one collective call between barriers on rank 0.
			step := func(slot, n int, fn func()) {
				c.Barrier()
				t0 := time.Now()
				fn()
				c.Barrier()
				if c.Rank() == 0 {
					got[slot] = since(t0, time.Nanosecond) / float64(n)
				}
			}
			c.Barrier()
			var m0 uint64
			if c.Rank() == 0 {
				m0 = mallocs()
			}
			step(0, len(d.spath), func() { sp.Materialize(1, worse, true) })
			step(1, len(d.spath), func() { sp.Materialize(2, worse, true) })
			step(2, len(d.spath), func() { sp.Materialize(3, exact, true) })
			if c.Rank() == 0 {
				got[6] = float64(mallocs()-m0) / float64(3*len(d.spath))
			}
			found := 0
			step(3, len(d.keys), func() {
				for _, k := range d.keys {
					if _, ok := sp.Lookup(k); ok {
						found++
					}
				}
			})
			step(4, len(d.spath), func() {
				sp.BeginDelete()
				sp.DeleteBatch(exact)
				sp.EndDelete()
			})
			step(5, len(d.edges), func() { ed.LoadFacts(facts) })
			return nil
		})
		if err != nil {
			return fmt.Errorf("relation probe: %w", err)
		}
		for i, n := range names {
			samples[n] = append(samples[n], got[i])
		}
	}
	for _, n := range names {
		out[n] = median(samples[n])
	}
	return nil
}

// collectiveProbe times the four collective shapes on comm; rank 0's numbers
// land in out under the given metric names ("" skips a shape).
func collectiveProbe(c *mpi.Comm, n, bulkWords int, names [4]string, out map[string]float64, mu *sync.Mutex) {
	const rounds = 5
	timeOp := func(name string, reps int, fn func()) float64 {
		if name == "" {
			return 0
		}
		var per []float64
		for r := 0; r < rounds; r++ {
			c.Barrier()
			t0 := time.Now()
			for i := 0; i < reps; i++ {
				fn()
			}
			per = append(per, since(t0, time.Nanosecond)/float64(reps))
		}
		return median(per)
	}
	size := c.Size()
	small := make([][]mpi.Word, size)
	bulk := make([][]mpi.Word, size)
	for i := range small {
		small[i] = make([]mpi.Word, 8)
		bulk[i] = make([]mpi.Word, bulkWords)
	}
	allreduce := timeOp(names[0], n, func() { c.Allreduce(1, mpi.OpSum) })
	barrier := timeOp(names[1], n, func() { c.Barrier() })
	smallNS := timeOp(names[2], n, func() { c.Alltoallv(small) })
	bulkNS := timeOp(names[3], 4, func() { c.Alltoallv(bulk) })
	if c.Rank() != 0 {
		return
	}
	mu.Lock()
	defer mu.Unlock()
	for i, v := range []float64{allreduce, barrier, smallNS} {
		if names[i] != "" {
			out[names[i]] = v / 1e3
		}
	}
	if names[3] != "" {
		// Off-diagonal lanes are what crosses between ranks.
		moved := float64(size * (size - 1) * bulkWords * mpi.WordBytes)
		out[names[3]] = moved / 1e6 / (bulkNS / 1e9)
	}
}

func probeMPI(sz sizes, out map[string]float64) error {
	var mu sync.Mutex
	reps := 2000
	if sz.skewSmoke {
		reps = 50
	}
	err := mpi.NewWorld(ranks).Run(func(c *mpi.Comm) error {
		collectiveProbe(c, reps, sz.bulkWords, [4]string{"mpi.allreduce_us", "mpi.barrier_us",
			"mpi.alltoallv_small_us", "mpi.alltoallv_bulk_mb_s"}, out, &mu)
		return nil
	})
	if err != nil {
		return fmt.Errorf("mpi probe: %w", err)
	}
	// The same collectives composed from point-to-point frames over loopback.
	trs, err := newGang(ranks)
	if err != nil {
		return err
	}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i, tr := range trs {
		wg.Add(1)
		go func(i int, tr *tcp.Transport) {
			defer wg.Done()
			errs[i] = mpi.NewDistributedWorld(tr).RunLocal(func(c *mpi.Comm) error {
				// Few enough frames to stay inside one send window (see
				// probeTCP), so the collectives are timed, not flow control.
				collectiveProbe(c, tcp.DefaultSendWindow/16, 0, [4]string{"mpi.allreduce_tcp_us", "",
					"mpi.alltoallv_small_tcp_us", ""}, out, &mu)
				return nil
			})
		}(i, tr)
	}
	wg.Wait()
	for i, tr := range trs {
		if cerr := tr.Close(); cerr != nil && errs[i] == nil {
			errs[i] = cerr
		}
	}
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("mpi tcp probe: %w", e)
		}
	}
	return nil
}

// probeHandler is the mpi.Handler the direct transport probes install: echo
// ping frames back, count bulk frames.
type probeHandler struct {
	ping   chan struct{}
	pong   chan struct{}
	bulk   atomic.Int64
	want   int64
	done   chan struct{}
	failed atomic.Pointer[error]
}

const (
	tagPing = 1
	tagPong = 2
	tagBulk = 3
)

func (h *probeHandler) Deliver(src, tag int, words []mpi.Word) {
	switch tag {
	case tagPing:
		// Echoed from the prober's goroutine: a Send from inside Deliver
		// could block the reader that must also receive the acks.
		h.ping <- struct{}{}
	case tagPong:
		h.pong <- struct{}{}
	case tagBulk:
		if h.bulk.Add(1) == h.want {
			close(h.done)
		}
	}
}

func (h *probeHandler) PeerFailed(rank int, cause error) { h.failed.Store(&cause) }

// probeTCP drives tcp.Transport directly: mesh establishment, a one-word
// ping-pong, and a one-way bulk stream.
func probeTCP(sz sizes, out map[string]float64) error {
	t0 := time.Now()
	trs, err := newGang(ranks)
	if err != nil {
		return err
	}
	hs := make([]*probeHandler, ranks)
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for i := range trs {
		// ping and pong are buffered for the one frame in flight.
		hs[i] = &probeHandler{ping: make(chan struct{}, 1), pong: make(chan struct{}, 1),
			want: int64(sz.bulkMsg), done: make(chan struct{})}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = trs[i].Start(hs[i])
		}(i)
	}
	wg.Wait()
	out["tcp.connect_ms"] = since(t0, time.Millisecond)
	defer func() {
		for _, tr := range trs {
			tr.Close()
		}
	}()
	for _, e := range errs {
		if e != nil {
			return fmt.Errorf("tcp probe start: %w", e)
		}
	}
	// Acks ride the 100 ms heartbeat, so a sender gets tcp.DefaultSendWindow
	// frames per interval; the probe stays under one window in total so it
	// times the round trip, not flow control.
	const rounds, pings = 5, tcp.DefaultSendWindow / 8
	word := []mpi.Word{7}
	echoErr := make(chan error, 1)
	quit := make(chan struct{})
	var echo sync.WaitGroup
	echo.Add(1)
	go func() {
		defer echo.Done()
		for {
			select {
			case <-hs[1].ping:
			case <-quit:
				return
			}
			if err := trs[1].Send(0, tagPong, word); err != nil {
				echoErr <- err
				return
			}
		}
	}()
	defer func() {
		close(quit)
		echo.Wait()
	}()
	var per []float64
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for i := 0; i < pings; i++ {
			if err := trs[0].Send(1, tagPing, word); err != nil {
				return fmt.Errorf("tcp probe ping: %w", err)
			}
			select {
			case <-hs[0].pong:
			case err := <-echoErr:
				return fmt.Errorf("tcp probe echo: %w", err)
			case <-time.After(30 * time.Second):
				return fmt.Errorf("tcp probe: pong lost")
			}
		}
		per = append(per, since(t0, time.Microsecond)/float64(pings))
	}
	out["tcp.pingpong_us"] = median(per)

	payload := make([]mpi.Word, sz.bulkWords)
	t0 = time.Now()
	for i := 0; i < sz.bulkMsg; i++ {
		if err := trs[0].Send(1, tagBulk, payload); err != nil {
			return fmt.Errorf("tcp probe bulk: %w", err)
		}
	}
	select {
	case <-hs[1].done:
	case <-time.After(60 * time.Second):
		return fmt.Errorf("tcp probe: bulk stream stalled")
	}
	moved := float64(sz.bulkMsg * sz.bulkWords * mpi.WordBytes)
	out["tcp.bulk_mb_s"] = moved / 1e6 / time.Since(t0).Seconds()
	for _, h := range hs {
		if e := h.failed.Load(); e != nil {
			return fmt.Errorf("tcp probe: %w", *e)
		}
	}
	return nil
}

// probeCompile times ParseProgram + instantiation. Instantiate needs a rank's
// communicator, so it is reached through Open, whose readiness barrier
// returns once every rank has instantiated the program.
func probeCompile(out map[string]float64) error {
	var per []float64
	for r := 0; r < 9; r++ {
		t0 := time.Now()
		prog, err := paralagg.ParseProgram(ssspSource)
		if err != nil {
			return err
		}
		eng, err := paralagg.Open(paralagg.Config{Ranks: ranks}, prog)
		if err != nil {
			return err
		}
		per = append(per, since(t0, time.Microsecond))
		if err := eng.Close(); err != nil {
			return err
		}
	}
	out["core.compile_us"] = median(per)
	return nil
}

// probeEngine drives a resident engine on the workload's own graph through a
// fixed number of insert → lookups → scan → delete → lookups cycles, then
// measures the command-loop floor, allocations, reads under mutation, and a
// snapshot. Exact counters sum the fixed cycles.
func probeEngine(in probeInputs, d probeData, sz sizes, cycles int, scratch string, out map[string]float64) error {
	ctx := context.Background()
	t0 := time.Now()
	eng, err := paralagg.Open(paralagg.Config{Ranks: ranks, Subs: in.subs}, queries.SSSPProgram())
	if err != nil {
		return err
	}
	out["engine.open_us"] = since(t0, time.Microsecond)
	closed := false
	defer func() {
		if !closed {
			eng.Close()
		}
	}()
	t0 = time.Now()
	if _, err := eng.Apply(ctx, paralagg.Mutation{
		Load: func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, in.g, in.sources) },
	}); err != nil {
		return err
	}
	out["engine.initial_load_ms"] = since(t0, time.Millisecond)

	var ins, del, point, scan []float64
	var itIns, itDel, rounds int
	var dropped, applyAllocs uint64
	key := func(i int) []paralagg.Value { return d.keys[i%len(d.keys)] }
	burst := func() error {
		t := time.Now()
		for i := 0; i < sz.burst; i++ {
			if _, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: key(i)}); err != nil {
				return err
			}
		}
		point = append(point, since(t, time.Nanosecond)/float64(sz.burst))
		return nil
	}
	for c := 0; c < cycles; c++ {
		batch := map[string][]paralagg.Tuple{"edge": in.pool[c%len(in.pool)]}
		m0 := mallocs()
		t := time.Now()
		st, err := eng.Apply(ctx, paralagg.Mutation{Insert: batch})
		if err != nil {
			return err
		}
		ins = append(ins, since(t, time.Millisecond))
		applyAllocs += mallocs() - m0
		itIns += st.Iterations
		if err := burst(); err != nil {
			return err
		}
		t = time.Now()
		if _, err := eng.Query(ctx, topSpec(in.sources[0])); err != nil {
			return err
		}
		scan = append(scan, since(t, time.Microsecond))
		m1 := mallocs()
		t = time.Now()
		st, err = eng.Apply(ctx, paralagg.Mutation{Delete: batch})
		if err != nil {
			return err
		}
		del = append(del, since(t, time.Millisecond))
		applyAllocs += mallocs() - m1
		itDel += st.Iterations
		rounds += st.InvalidationRounds
		dropped += st.Dropped
		if err := burst(); err != nil {
			return err
		}
	}
	out["engine.apply_insert_ms"], out["engine.apply_insert_hi_ms"] = median(ins), hi(ins)
	out["engine.apply_delete_ms"], out["engine.apply_delete_hi_ms"] = median(del), hi(del)
	out["engine.point_query_ns"] = median(point)
	out["engine.scan_query_us"] = median(scan)
	out["engine.reconv_iters_insert"] = float64(itIns)
	out["engine.reconv_iters_delete"] = float64(itDel)
	out["engine.invalidation_rounds"] = float64(rounds)
	out["engine.dropped_tuples"] = float64(dropped)
	out["engine.apply_allocs"] = float64(applyAllocs) / float64(2*cycles)

	// Command-loop floor: an empty Mutation still round-trips every rank.
	out["engine.apply_empty_us"] = timeRounds(50, time.Duration(sz.probeMin), func() {
		for i := 0; i < 50; i++ {
			eng.Apply(ctx, paralagg.Mutation{})
		}
	}) / 1e3

	// Single point queries: allocations per call and the p99 of one call.
	const singles = 4000
	lat := make([]float64, singles)
	m0 := mallocs()
	for i := range lat {
		t := time.Now()
		if _, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: key(i)}); err != nil {
			return err
		}
		lat[i] = since(t, time.Nanosecond)
	}
	out["engine.query_allocs"] = float64(mallocs()-m0) / singles
	out["engine.query_point_p99_ns"] = quantile(lat, 0.99)

	// Reads under mutation: one reader issues a lookup every readEvery on a
	// schedule while the mutator runs one more cycle. Each lookup is timed
	// from when it was due, so the lookups an Apply holds up all count.
	const readEvery = 200 * time.Microsecond
	stop := make(chan struct{})
	var waits []float64
	var rerr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		begin := time.Now()
		for i := 0; ; i++ {
			due := begin.Add(time.Duration(i) * readEvery)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			select {
			case <-stop:
				return
			default:
			}
			if _, err := eng.Query(ctx, paralagg.QuerySpec{Relation: "spath", Key: key(i)}); err != nil {
				rerr = err
				return
			}
			waits = append(waits, since(due, time.Microsecond))
		}
	}()
	batch := map[string][]paralagg.Tuple{"edge": in.pool[0]}
	_, ierr := eng.Apply(ctx, paralagg.Mutation{Insert: batch})
	_, derr := eng.Apply(ctx, paralagg.Mutation{Delete: batch})
	close(stop)
	wg.Wait()
	for _, e := range []error{ierr, derr, rerr} {
		if e != nil {
			return e
		}
	}
	out["engine.query_wait_p99_us"] = quantile(waits, 0.99)

	// Snapshot to a file sink under the benchmark's scratch directory.
	dir, err := os.MkdirTemp(scratch, "snap-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	t0 = time.Now()
	if err := eng.Snapshot(paralagg.NewFileCheckpointSink(dir)); err != nil {
		return err
	}
	out["engine.snapshot_ms"] = since(t0, time.Millisecond)
	var bytes int64
	err = filepath.Walk(dir, func(_ string, fi os.FileInfo, err error) error {
		if err == nil && !fi.IsDir() {
			bytes += fi.Size()
		}
		return err
	})
	if err != nil {
		return err
	}
	out["engine.snapshot_bytes"] = float64(bytes)

	t0 = time.Now()
	closed = true
	if err := eng.Close(); err != nil {
		return err
	}
	out["engine.close_us"] = since(t0, time.Microsecond)
	return nil
}

// runProbes runs every layer probe on one workload's captured inputs.
func runProbes(name string, in probeInputs, sz sizes, scratch string, out map[string]float64) error {
	d := flatten(in)
	min := time.Duration(sz.probeMin)
	probeWordmap(d, min, out)
	probeBtree(d, min, out)
	if err := probeRelation(d, in.subs, min, out); err != nil {
		return err
	}
	if err := probeMPI(sz, out); err != nil {
		return err
	}
	if err := probeTCP(sz, out); err != nil {
		return err
	}
	if err := probeCompile(out); err != nil {
		return err
	}
	return probeEngine(in, d, sz, sz.engineCycles[name], scratch, out)
}
