package main

import "time"

// metricDef declares one reported metric. The end-to-end table carries a
// bound (the share of the parent's median by which the metric may worsen
// before a change counts as a regression); per-layer metrics are attribution
// only and have none. BENCHMARK.json at the repository root lists the same
// names, units, directions and bounds; bench_test.go fails when they drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system waits for or pays. Every
// workload reports every one of them (the driver requires a uniform set), so
// each is defined by role:
//
//   - fixpoint_s: time from handing the system work to a converged fixpoint —
//     one Exec from call to return on sssp-* (tcp.New of the first transport
//     to Close of the last on sssp-tcp); the insert Apply plus the delete
//     Apply of one cycle on serve-mixed.
//   - scan_query_us: one prefix top-10 read of the converged spath relation —
//     the collective Rank.Query inside Exec's inspect callback on sssp-*
//     (the slowest rank's wall time), Engine.Query on serve-mixed.
//   - ops_per_s: closed-loop operations per second of op wall time with one
//     client (op = one Exec, or one serve cycle).
//   - allocs_per_op / alloc_bytes_per_op: runtime.MemStats Mallocs and
//     TotalAlloc deltas over the timed pass ÷ ops.
//   - setup_s: graph generation + reference answers + one fully verified
//     warm-up op (median of three to nine set-ups).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "fixpoint_s", Unit: "s", Better: "lower", Bound: 0.20},
	{Name: "scan_query_us", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05},
}

// perLayer are the attribution metrics, layer = module name. They come from
// the traced pass and the probes, never from the timed pass.
var perLayer = []metricDef{
	// wordmap: ns/op over the workload's own independent (src,dst) keys.
	{Name: "wordmap.upsert_new_ns", Unit: "ns", Better: "lower"},
	{Name: "wordmap.upsert_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "wordmap.get_ns", Unit: "ns", Better: "lower"},
	// btree: ns/op over the workload's edge tuples.
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.has_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.ascend_prefix_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.delete_ns", Unit: "ns", Better: "lower"},
	// relation: per tuple on a 2-rank in-process world, exchange included.
	{Name: "relation.materialize_new_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.materialize_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.materialize_improve_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.materialize_allocs", Unit: "count", Better: "lower"},
	{Name: "relation.load_facts_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.delete_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "relation.lookup_ns", Unit: "ns", Better: "lower"},
	// ra: per op, from the benchmark's Observer (phase spans are max over
	// ranks per iteration, summed over iterations).
	{Name: "ra.iterations", Unit: "count", Better: "lower"},
	{Name: "ra.delta_tuples", Unit: "count", Better: "lower"},
	{Name: "ra.local_join_s", Unit: "s", Better: "lower"},
	{Name: "ra.local_agg_s", Unit: "s", Better: "lower"},
	{Name: "ra.intra_bucket_s", Unit: "s", Better: "lower"},
	{Name: "ra.all_to_all_s", Unit: "s", Better: "lower"},
	{Name: "ra.planning_s", Unit: "s", Better: "lower"},
	{Name: "ra.rebalance_s", Unit: "s", Better: "lower"},
	{Name: "ra.other_s", Unit: "s", Better: "lower"},
	{Name: "ra.iter_floor_us", Unit: "us", Better: "lower"},
	// mpi: exact counters from Result, collective probes on 2 ranks.
	{Name: "mpi.comm_bytes", Unit: "B", Better: "lower"},
	{Name: "mpi.comm_msgs", Unit: "count", Better: "lower"},
	{Name: "mpi.bytes_per_iter", Unit: "B", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.barrier_us", Unit: "us", Better: "lower"},
	{Name: "mpi.alltoallv_small_us", Unit: "us", Better: "lower"},
	{Name: "mpi.alltoallv_bulk_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "mpi.allreduce_tcp_us", Unit: "us", Better: "lower"},
	{Name: "mpi.alltoallv_small_tcp_us", Unit: "us", Better: "lower"},
	// tcp: direct Transport probes, and per-fixpoint counters from Net()
	// (zero on the workloads that do not cross the wire).
	{Name: "tcp.connect_ms", Unit: "ms", Better: "lower"},
	{Name: "tcp.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "tcp.bulk_mb_s", Unit: "MB/s", Better: "higher"},
	{Name: "tcp.frames_sent", Unit: "count", Better: "lower"},
	{Name: "tcp.bytes_sent", Unit: "B", Better: "lower"},
	{Name: "tcp.frames_per_iter", Unit: "count", Better: "lower"},
	{Name: "tcp.throttle_stalls", Unit: "count", Better: "lower"},
	{Name: "tcp.outbox_peak_frames", Unit: "count", Better: "lower"},
	{Name: "tcp.retransmits", Unit: "count", Better: "lower"},
	// core
	{Name: "core.compile_us", Unit: "us", Better: "lower"},
	// engine: a resident engine on the workload's own graph driven through
	// insert/lookup/scan/delete cycles (exact counters sum a fixed number of
	// cycles).
	{Name: "engine.open_us", Unit: "us", Better: "lower"},
	{Name: "engine.initial_load_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.close_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_empty_us", Unit: "us", Better: "lower"},
	{Name: "engine.apply_insert_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.apply_insert_hi_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.apply_delete_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.apply_delete_hi_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.point_query_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.scan_query_us", Unit: "us", Better: "lower"},
	{Name: "engine.reconv_iters_insert", Unit: "count", Better: "lower"},
	{Name: "engine.reconv_iters_delete", Unit: "count", Better: "lower"},
	{Name: "engine.invalidation_rounds", Unit: "count", Better: "lower"},
	{Name: "engine.dropped_tuples", Unit: "count", Better: "lower"},
	{Name: "engine.apply_allocs", Unit: "count", Better: "lower"},
	{Name: "engine.query_allocs", Unit: "count", Better: "lower"},
	{Name: "engine.query_point_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "engine.query_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "engine.snapshot_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "engine.op_self_ms", Unit: "ms", Better: "lower"},
	// model vs measurement, runtime, tracing cost.
	{Name: "model.sim_s", Unit: "s", Better: "lower"},
	{Name: "model.sim_over_wall", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}

// exactCounters must repeat exactly between two runs of the same code with
// the same seed; -check compares them for equality instead of within a bound.
var exactCounters = []string{
	"ra.iterations", "ra.delta_tuples", "mpi.comm_bytes", "mpi.comm_msgs",
	"engine.reconv_iters_insert", "engine.reconv_iters_delete",
	"engine.invalidation_rounds", "engine.dropped_tuples",
}

// inexactOnServe are the exact counters serve-mixed cannot read exactly: an
// Engine has no Result, so its communication totals are summed from rank 0's
// iteration events, whose deltas of the world's shared counters catch a
// varying few of the other rank's in-flight sends. -check allows them 1%.
var inexactOnServe = map[string]bool{"mpi.comm_bytes": true, "mpi.comm_msgs": true}

// workloadDef names one workload and why it exists. BENCHMARK.json repeats
// the names and reasons.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"sssp-chain", "4x600 grid SSSP in-process: ~700 near-empty iterations, so per-iteration fixed cost (ra bookkeeping, planner vote, mpi collectives) is the whole run"},
	{"sssp-skew", "twitter-sim SSSP (hubs of out-degree 12k, Subs 8): 9 iterations moving ~1e5 tuples, so btree/wordmap/materialize/join kernel do the work; iteration overhead should not move it"},
	{"sssp-tcp", "same program and graph as sssp-chain over a 2-rank loopback TCP gang: the ratio to sssp-chain is the TCP tax; only transport framing, acks and flow control can explain it"},
	{"serve-mixed", "resident Engine on a 32x32 grid: insert 4 shortcuts, 256 lookups, top-10 scan, delete them, 256 lookups; monotone resume, invalidate+reload, arena probe and scan side by side"},
}

// sizes fixes the input shapes and the fixed rep counts. The timed pass is
// time-bounded (-seconds); everything whose count feeds an exact counter
// (traced ops, engine-probe cycles) is a constant so it repeats exactly.
type sizes struct {
	chainRows, chainCols int
	// skew: catalog twitter-sim at full size, a small Social graph in smoke.
	skewSmoke         bool
	serveRows         int
	replicas          int // resident engines serve-mixed rotates through
	poolBatches       int // pre-generated shortcut batches per graph (with references)
	batchEdges, burst int
	tracedOps         map[string]int
	engineCycles      map[string]int
	minOps            int
	// set-ups per timed pass: see timedPass
	minSetups, maxSetups int
	setupBudget          time.Duration
	fullCheckEvery       int
	probeMin             int64 // ns each probe round-set runs at least
	bulkWords, bulkMsg   int
}

var fullSizes = sizes{
	chainRows: 4, chainCols: 600, serveRows: 32, replicas: 8,
	poolBatches: 16, batchEdges: 4, burst: 256,
	tracedOps:    map[string]int{"sssp-chain": 8, "sssp-skew": 4, "sssp-tcp": 6, "serve-mixed": 64},
	engineCycles: map[string]int{"sssp-chain": 3, "sssp-skew": 2, "sssp-tcp": 3, "serve-mixed": 16},
	minOps:       12, minSetups: 3, maxSetups: 9, setupBudget: 2400 * time.Millisecond, fullCheckEvery: 100,
	probeMin:  60e6,
	bulkWords: 64 << 10, bulkMsg: 48,
}

var smokeSizes = sizes{
	chainRows: 4, chainCols: 24, skewSmoke: true, serveRows: 6, replicas: 2,
	poolBatches: 4, batchEdges: 2, burst: 16,
	tracedOps:    map[string]int{"sssp-chain": 2, "sssp-skew": 2, "sssp-tcp": 2, "serve-mixed": 4},
	engineCycles: map[string]int{"sssp-chain": 1, "sssp-skew": 1, "sssp-tcp": 1, "serve-mixed": 2},
	minOps:       2, minSetups: 1, maxSetups: 1, fullCheckEvery: 2,
	probeMin:  1e6,
	bulkWords: 1 << 10, bulkMsg: 4,
}
