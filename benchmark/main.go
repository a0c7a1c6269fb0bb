// Command benchmark is the repository's one benchmark: four workloads, the
// end-to-end metrics a user waits for, per-layer attribution from a traced
// pass and layer probes, and a correctness gate on every answer. See
// README.md in this directory for the metric and workload tables.
//
// The runtime is measured from outside: the benchmark times calls into
// public functions and attaches the public Config.Observer; it changes
// nothing in the packages it measures.
//
//	go run ./benchmark                      every workload, timed + traced
//	go run ./benchmark -check               the full set twice, compared
//	go run ./benchmark -workload sssp-tcp -trace 0 -seed 7 -seconds 25
//
// The last form is what the driver runs (through run.sh): one workload, one
// pass, and as the last line of standard output one JSON object with the
// keys correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	smoke    bool
	check    bool
	out      string
	traceOut string
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the driver-facing summary of a run, printed as the last line.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Name      string             `json:"name"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Ops       int                `json:"timed_ops"`
	TracedOps int                `json:"traced_ops"`
	Setups    int                `json:"setups"`
	WallS     float64            `json:"wall_s"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	Detail    map[string]value   `json:"detail,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	SelfTimeS map[string]float64 `json:"trace_self_time_s,omitempty"`
}

// environment records where and how the numbers were taken.
type environment struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Smoke      bool    `json:"smoke"`
}

type report struct {
	Env       environment      `json:"env"`
	Workloads []workloadReport `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run one workload (default: all four, timed and traced)")
	fs.Int64Var(&o.seed, "seed", 1, "seed the inputs are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "length of each timed pass (default 25, or 0.2 with -smoke)")
	fs.IntVar(&o.trace, "trace", 0, "with -workload: 0 = timed pass (end-to-end metrics), 1 = traced pass + layer probes (per-layer metrics)")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs and rep counts (shape check, not a measurement)")
	fs.BoolVar(&o.check, "check", false, "run the full set twice and fail unless the two agree")
	fs.StringVar(&o.out, "out", "", "write the full report as JSON to this file")
	fs.StringVar(&o.traceOut, "trace-out", "", "write the traced passes' spans to this file (Chrome trace format)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchmark: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if o.seconds < 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	if o.seconds == 0 {
		o.seconds = 25
		if o.smoke {
			o.seconds = 0.2
		}
	}
	if !o.smoke && runtime.NumCPU() < ranks {
		fmt.Fprintf(stderr, "benchmark: %d CPU(s); the timed passes need %d (one per rank goroutine) or wall clock measures the scheduler\n",
			runtime.NumCPU(), ranks)
		return 2
	}
	if err := benchmark(o, stdout); err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	return 0
}

func benchmark(o options, stdout io.Writer) error {
	sz := fullSizes
	if o.smoke {
		sz = smokeSizes
	}
	names := []string{o.workload}
	if o.workload == "" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	} else if !knownWorkload(o.workload) {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	scratch, err := os.MkdirTemp(scratchRoot(), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(scratch)

	env := environment{
		Commit: commit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: o.seed, Seconds: o.seconds, Smoke: o.smoke,
	}
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	tr := newTracer()
	pass := func() (report, error) {
		rep := report{Env: env}
		for _, name := range names {
			// One workload's heap must not bill the next.
			runtime.GC()
			debug.FreeOSMemory()
			wr, err := runWorkload(name, o, sz, tr, scratch)
			if err != nil {
				return rep, fmt.Errorf("%s: %w", name, err)
			}
			printWorkload(stdout, wr)
			rep.Workloads = append(rep.Workloads, wr)
		}
		return rep, nil
	}
	rep, err := pass()
	if err != nil {
		return err
	}
	var checkErr error
	if o.check {
		fmt.Fprintln(stdout, "\n-check: second run of the full set")
		second, err := pass()
		if err != nil {
			return err
		}
		checkErr = compareReports(stdout, rep, second)
	}
	if o.traceOut != "" {
		if err := tr.writeChrome(o.traceOut); err != nil {
			return err
		}
	}
	if o.out != "" {
		b, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(o.out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}

	res := summarize(rep, o)
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed their correctness checks", res.Failed, res.Attempted)
	}
	return checkErr
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// scratchRoot is where temporary files go: inside the checkout, under the
// ignored build directory, never the system temp directory.
func scratchRoot() string {
	root := ".bench_build"
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "."
	}
	return root
}

// commit names the tree the numbers belong to, when git can tell.
func commit() string {
	// Only a checkout that is itself a git repository: git would otherwise
	// search the parent directories, outside the checkout.
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// setup dispatches to the workload's constructor.
func setup(name string, seed int64, sz sizes, tr *tracer) (instance, error) {
	if name == "serve-mixed" {
		return setupServe(seed, sz, tr)
	}
	return setupSSSP(name, seed, sz, tr)
}

// runWorkload runs the passes the options ask of one workload: the timed
// pass (driver mode -trace 0), the traced pass and probes (-trace 1), or both
// (no -workload).
func runWorkload(name string, o options, sz sizes, tr *tracer, scratch string) (workloadReport, error) {
	wr := workloadReport{Name: name}
	start := time.Now()
	if o.workload == "" || o.trace == 0 {
		if err := timedPass(&wr, o, sz); err != nil {
			return wr, err
		}
	}
	if o.workload == "" || o.trace == 1 {
		runtime.GC()
		debug.FreeOSMemory()
		if err := tracedPass(&wr, o, sz, tr, scratch); err != nil {
			return wr, err
		}
	}
	wr.WallS = time.Since(start).Seconds()
	return wr, nil
}

// timedPass sets the workload up (several times, for a steady setup_s), then
// runs ops back to back for o.seconds with Observer nil and derives the
// end-to-end metrics.
func timedPass(wr *workloadReport, o options, sz sizes) error {
	// Set up again and again for setupBudget (at least minSetups, at most
	// maxSetups times), so that a cheap set-up is sampled more often and
	// setup_s is a steady median on every workload.
	var inst instance
	var setups []float64
	for begin := time.Now(); len(setups) < sz.minSetups ||
		(len(setups) < sz.maxSetups && time.Since(begin) < sz.setupBudget); {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		in, err := setup(wr.Name, o.seed, sz, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		inst = in
	}
	defer inst.close()

	runtime.GC()
	debug.FreeOSMemory()
	var samples []opSample
	var before, after runtime.MemStats
	var mallocs, allocBytes uint64
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for len(samples) < sz.minOps || time.Now().Before(deadline) {
		// Fresh inputs or a periodic whole-state check: the harness's work,
		// kept out of the op's time and out of allocs_per_op.
		ok, err := inst.prepare()
		if err != nil {
			return err
		}
		if !ok {
			wr.Attempted++
			wr.Failed++
		}
		runtime.ReadMemStats(&before)
		s, err := inst.op()
		if err != nil {
			return err
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
		allocBytes += after.TotalAlloc - before.TotalAlloc
		samples = append(samples, s)
		wr.Attempted++
		if !s.ok {
			wr.Failed++
		}
	}

	n := float64(len(samples))
	var fix, scan, wall, ins, del, point []float64
	for _, s := range samples {
		fix = append(fix, s.fixpoint.Seconds())
		scan = append(scan, float64(s.scan.Nanoseconds())/1e3)
		wall = append(wall, s.wall.Seconds())
		ins = append(ins, float64(s.insert.Nanoseconds())/1e6)
		del = append(del, float64(s.del.Nanoseconds())/1e6)
		point = append(point, s.pointNS)
	}
	wr.Ops = len(samples)
	wr.EndToEnd = map[string]float64{
		"setup_s":            median(setups),
		"fixpoint_s":         median(fix),
		"scan_query_us":      median(scan),
		"ops_per_s":          n / sum(wall),
		"allocs_per_op":      float64(mallocs) / n,
		"alloc_bytes_per_op": float64(allocBytes) / n,
	}
	wr.Setups = len(setups)
	// Printed and written to the report, not gated: see README, "_hi".
	wr.Detail = map[string]value{"fixpoint_hi_s": {hi(fix), "s"}}
	if wr.Name == "serve-mixed" {
		wr.Detail["apply_insert_ms"], wr.Detail["apply_insert_hi_ms"] = value{median(ins), "ms"}, value{hi(ins), "ms"}
		wr.Detail["apply_delete_ms"], wr.Detail["apply_delete_hi_ms"] = value{median(del), "ms"}, value{hi(del), "ms"}
		wr.Detail["point_query_ns"] = value{median(point), "ns"}
		wr.Detail["cycles_per_s"] = value{n / sum(wall), "1/s"}
	}
	return nil
}

// tracedPass runs a fixed number of ops on two instances of the workload, one
// with Observer nil and one with the benchmark's tracer, alternating, then
// the layer probes on the workload's captured inputs. The fixed count makes
// the exact counters repeat; the pairing gives trace.overhead_frac.
func tracedPass(wr *workloadReport, o options, sz sizes, tr *tracer, scratch string) error {
	plain, err := setup(wr.Name, o.seed, sz, nil)
	if err != nil {
		return err
	}
	defer plain.close()
	tr.beginWorkload(wr.Name)
	traced, err := setup(wr.Name, o.seed, sz, tr)
	if err != nil {
		return err
	}
	defer traced.close()

	n := sz.tracedOps[wr.Name]
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var ps, ts []opSample
	for i := 0; i < n; i++ {
		for _, side := range []struct {
			inst instance
			into *[]opSample
		}{{plain, &ps}, {traced, &ts}} {
			ok, err := side.inst.prepare()
			if err != nil {
				return err
			}
			s, err := side.inst.op()
			if err != nil {
				return err
			}
			*side.into = append(*side.into, s)
			wr.Attempted++
			if !ok || !s.ok {
				wr.Failed++
			}
		}
	}
	runtime.ReadMemStats(&ms1)
	tr.endWorkload()
	wr.TracedOps = n

	out := map[string]float64{}
	var pfix, tfix, self, other, floor []float64
	phases := map[string][]float64{}
	var iters, delta, sim, bytes, msgs float64
	var frames, wire, stalls, peak, retrans float64
	for i := range ts {
		a := ts[i].attr
		pfix = append(pfix, ps[i].fixpoint.Seconds())
		tfix = append(tfix, ts[i].fixpoint.Seconds())
		self = append(self, (ts[i].fixpoint.Seconds()-a.iterWall)*1e3)
		other = append(other, a.other)
		floor = append(floor, a.floorUS...)
		for _, p := range []string{"local-join", "local-agg", "intra-bucket", "all-to-all", "planning", "rebalance"} {
			phases[p] = append(phases[p], a.phase[p])
		}
		iters += float64(a.iterations)
		delta += float64(a.deltaTuples)
		sim += a.simNS / 1e9
		if res := ps[i].res; res != nil {
			// Exact, from the untraced Result: the Observer's own
			// allgathers would otherwise be counted as the program's.
			bytes += float64(res.CommBytes)
			msgs += float64(res.CommMsgs)
		} else {
			bytes += float64(a.commBytes)
			msgs += float64(a.commMsgs)
		}
		net := ps[i].net
		frames += float64(net.FramesSent)
		for _, b := range net.PeerBytesSent {
			wire += float64(b)
		}
		stalls += float64(net.ThrottleStalls)
		peak = max(peak, float64(net.OutboxPeakFrames))
		retrans += float64(net.Retransmits)
	}
	fn := float64(n)
	out["ra.iterations"] = iters / fn
	out["ra.delta_tuples"] = delta / fn
	out["ra.local_join_s"] = median(phases["local-join"])
	out["ra.local_agg_s"] = median(phases["local-agg"])
	out["ra.intra_bucket_s"] = median(phases["intra-bucket"])
	out["ra.all_to_all_s"] = median(phases["all-to-all"])
	out["ra.planning_s"] = median(phases["planning"])
	out["ra.rebalance_s"] = median(phases["rebalance"])
	out["ra.other_s"] = median(other)
	out["ra.iter_floor_us"] = median(floor)
	out["mpi.comm_bytes"] = bytes / fn
	out["mpi.comm_msgs"] = msgs / fn
	out["mpi.bytes_per_iter"] = bytes / iters
	out["tcp.frames_sent"] = frames / fn
	out["tcp.bytes_sent"] = wire / fn
	out["tcp.frames_per_iter"] = frames / iters
	out["tcp.throttle_stalls"] = stalls / fn
	out["tcp.outbox_peak_frames"] = peak
	out["tcp.retransmits"] = retrans / fn
	out["engine.op_self_ms"] = median(self)
	out["model.sim_s"] = sim / fn
	out["model.sim_over_wall"] = (sim / fn) / median(tfix)
	out["runtime.gc_cycles"] = float64(ms1.NumGC-ms0.NumGC) / (2 * fn)
	out["trace.overhead_frac"] = (median(tfix) - median(pfix)) / median(pfix)

	if err := runProbes(wr.Name, plain.probeInputs(), sz, scratch, out); err != nil {
		return err
	}
	wr.PerLayer = out
	wr.SelfTimeS = tr.selfTimes()
	return nil
}

// printWorkload prints every metric of one workload by name with its unit.
func printWorkload(w io.Writer, wr workloadReport) {
	fmt.Fprintf(w, "\n== %s: %d ops attempted, %d failed, %d set-ups, %d timed ops, %d traced ops, %.1f s wall\n",
		wr.Name, wr.Attempted, wr.Failed, wr.Setups, wr.Ops, wr.TracedOps, wr.WallS)
	if wr.EndToEnd != nil {
		fmt.Fprintf(w, "-- end to end (Observer nil; medians over n = %d ops, _hi = the value with ten samples above it)\n", wr.Ops)
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", m.Name, wr.EndToEnd[m.Name], m.Unit)
		}
		keys := make([]string, 0, len(wr.Detail))
		for k := range wr.Detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", k, wr.Detail[k].Value, wr.Detail[k].Unit)
		}
	}
	if wr.PerLayer != nil {
		fmt.Fprintf(w, "-- per layer (traced pass of %d ops, then probes)\n", wr.TracedOps)
		for _, m := range perLayer {
			fmt.Fprintf(w, "%-34s %16.6g %s\n", m.Name, wr.PerLayer[m.Name], m.Unit)
		}
		layers := make([]string, 0, len(wr.SelfTimeS))
		for l := range wr.SelfTimeS {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		fmt.Fprintf(w, "-- span self time by layer over the traced ops:")
		for _, l := range layers {
			fmt.Fprintf(w, " %s=%.3fs", l, wr.SelfTimeS[l])
		}
		fmt.Fprintln(w)
	}
}

// summarize builds the driver-facing last line. With -workload the metrics
// are exactly the end_to_end set (-trace 0) or the per_layer set (-trace 1);
// without, every metric of every workload under "<workload>/<metric>".
func summarize(rep report, o options) result {
	res := result{Metrics: map[string]value{}}
	for _, wr := range rep.Workloads {
		res.Attempted += wr.Attempted
		res.Failed += wr.Failed
		prefix := ""
		if o.workload == "" {
			prefix = wr.Name + "/"
		}
		for _, m := range endToEnd {
			if v, ok := wr.EndToEnd[m.Name]; ok {
				res.Metrics[prefix+m.Name] = value{v, m.Unit}
			}
		}
		for _, m := range perLayer {
			if v, ok := wr.PerLayer[m.Name]; ok {
				res.Metrics[prefix+m.Name] = value{v, m.Unit}
			}
		}
	}
	res.Correct = res.Failed == 0
	return res
}

// compareReports is -check: two runs of the same code must agree within each
// end-to-end metric's bound and exactly on every exact counter.
func compareReports(w io.Writer, a, b report) error {
	bad := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, m := range endToEnd {
			x, y := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			worse := (y - x) / x
			if m.Better == "higher" {
				worse = (x - y) / x
			}
			verdict := "ok"
			if worse > m.Bound || -worse > m.Bound {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "check %-12s %-20s %14.6g %14.6g %+7.2f%% (bound %.0f%%) %s\n",
				wa.Name, m.Name, x, y, 100*(y-x)/x, 100*m.Bound, verdict)
		}
		for _, name := range exactCounters {
			x, y := wa.PerLayer[name], wb.PerLayer[name]
			verdict := "ok"
			if x != y && !(inexactOnServe[name] && wa.Name == "serve-mixed" && math.Abs(x-y) <= 0.01*x) {
				verdict = "DISAGREE"
				bad++
			}
			fmt.Fprintf(w, "check %-12s %-28s %14.6g %14.6g exact %s\n", wa.Name, name, x, y, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("-check: %d metric(s) disagree between two runs of the same code", bad)
	}
	return nil
}
