// Command paralagg runs one of the built-in queries over a catalog graph
// (or an edge-list file) on a simulated MPI world and reports results and
// phase timings.
//
//	paralagg -query sssp -graph twitter-sim -ranks 64 -subs 8 -plan dynamic
//	paralagg -query cc -file my-edges.txt
//	paralagg -query sssp -checkpoint-every 4 -supervise -degrade
//
// With -transport=tcp the ranks are separate OS processes connected by real
// sockets; -spawn N launches and waits for a single-machine gang:
//
//	paralagg -query sssp -transport=tcp -spawn 4
//	paralagg -query sssp -transport=tcp -rank 1 -peers host0:9000,host1:9001
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"paralagg"
	"paralagg/internal/chaos"
	"paralagg/internal/graph"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/queries"
	"paralagg/internal/transport/tcp"
)

func main() {
	query := flag.String("query", "sssp", "query: sssp, cc, tc, pagerank, lsp")
	programFile := flag.String("program", "", "run a textual Datalog program instead of a built-in query")
	explain := flag.Bool("explain", false, "print the compiled plan and exit (with -program)")
	gname := flag.String("graph", "twitter-sim", "catalog graph name")
	file := flag.String("file", "", "edge-list file (overrides -graph)")
	ranks := flag.Int("ranks", 32, "simulated MPI ranks")
	subs := flag.Int("subs", 8, "sub-buckets per bucket")
	planName := flag.String("plan", "dynamic", "join layout: dynamic, static-left, static-right, anti")
	nsources := flag.Int("sources", 5, "SSSP sources")
	iters := flag.Int("iters", 15, "PageRank iterations")
	chaosSuites := flag.String("chaos", "", "run differential chaos suites instead of a query: all, or a comma-separated subset of "+strings.Join(chaos.Suites, ", ")+" (each replays under -collective-schedule; exit 1 if any check fails)")
	ckptEvery := flag.Int("checkpoint-every", 0, "snapshot relations every N fixpoint iterations (0 = off)")
	ckptDir := flag.String("checkpoint-dir", ".paralagg-ckpt", "directory for per-rank checkpoint files")
	ckptKeep := flag.Int("checkpoint-keep", paralagg.DefaultCheckpointKeep, "verified checkpoint generations to retain per rank; recovery falls back past corrupt ones")
	resume := flag.Bool("resume", false, "resume from the latest valid checkpoint in -checkpoint-dir")
	watchdogSpec := flag.String("watchdog", "0", "stall deadline for collectives: a duration (0 = off), or 'auto' for an adaptive deadline tracking observed iteration times")
	integrity := flag.Bool("integrity", false, "fingerprint relation state every iteration and abort with a structured divergence error on any mismatch")
	supervise := flag.Bool("supervise", false, "auto-recover from rank failures: rebuild the world and restore the latest checkpoint")
	maxRestarts := flag.Int("max-restarts", 3, "give up after this many supervised recoveries")
	degrade := flag.Bool("degrade", false, "restart with the surviving rank count instead of the same world size (with -supervise)")
	backoff := flag.Duration("recovery-backoff", 10*time.Millisecond, "first restart delay; doubles per restart (with -supervise)")
	transport := flag.String("transport", "sim", "rank placement: sim (goroutines in one process) or tcp (one OS process per rank over real sockets)")
	rank := flag.Int("rank", -1, "this process's rank (with -transport=tcp)")
	peers := flag.String("peers", "", "comma-separated host:port of every rank, indexed by rank (with -transport=tcp)")
	spawn := flag.Int("spawn", 0, "single-machine launcher: spawn N -transport=tcp rank processes on loopback, wait, respawn with -resume under -supervise")
	quiet := flag.Bool("quiet", false, "suppress result output (the -spawn launcher sets it on ranks > 0)")
	memBudget := flag.Int64("mem-budget", 0, "per-rank accounted-memory budget in bytes: soft pressure at 85% sheds scratch, reaching the budget fails structurally instead of OOM-killing (0 = off)")
	sendWindow := flag.Int("send-window", 0, "per-peer TCP flow-control window in unacknowledged frames (0 = default 1024; with -transport=tcp)")
	heartbeatInterval := flag.Duration("heartbeat-interval", 0, "TCP liveness beacon interval between peers (0 = default 100ms; with -transport=tcp)")
	peerTimeout := flag.Duration("peer-timeout", 0, "declare a silent TCP peer dead after this long (0 = 5 heartbeat intervals; must be at least 2x the heartbeat interval; with -transport=tcp)")
	serveAddr := flag.String("serve", "", "serving mode: converge once, keep the state resident, and answer /query, /topk and /apply on this host:port until interrupted")
	tracePath := flag.String("trace", "", "write a Chrome-trace JSON file of the run (open in chrome://tracing or Perfetto); TCP children write <path>.rankN")
	metricsAddr := flag.String("metrics-addr", "", "serve live /metrics, /vars and /debug/pprof on this host:port while the run is in flight; TCP children offset the port by their rank")
	jsonOut := flag.Bool("json", false, "print the result as a JSON document (stable field names) instead of the human summary")
	collSched := flag.String("collective-schedule", "flat", "collective routing schedule: flat (star through rank 0) or tree (topology-aware binomial tree)")
	topoFile := flag.String("topology", "", "rank-to-host topology file with per-link costs: 'host <rank> <name>' and 'cost <hostA> <hostB> <x>' lines (default: uniform, or host grouping derived from -peers with -transport=tcp)")
	flag.Parse()

	// The schedule steers every suite and run below; validate it before the
	// chaos dispatch so -chaos=all -collective-schedule=star fails fast.
	if _, err := mpi.ParseScheduleKind(*collSched); err != nil {
		log.Fatalf("-collective-schedule: %v", err)
	}
	if *chaosSuites != "" {
		failed, err := chaos.Run(os.Stdout, chaos.Table(), *chaosSuites, *collSched)
		if err != nil {
			log.Fatalf("-chaos: %v", err)
		}
		if failed > 0 {
			os.Exit(1)
		}
		return
	}

	// Flag validation: catch contradictory fault-tolerance setups before a
	// world is built, with errors that say how to fix them.
	if *ckptEvery < 0 {
		log.Fatalf("-checkpoint-every must be >= 0, got %d (use 0 to disable checkpointing)", *ckptEvery)
	}
	if *ckptKeep < 1 {
		log.Fatalf("-checkpoint-keep must be >= 1, got %d (recovery needs at least one retained generation)", *ckptKeep)
	}
	// One deadline mechanism: 'auto' lets it track the run's pace under a
	// 10s ceiling; a duration pins floor = ceiling, which is a fixed deadline.
	var watchdog, watchdogFloor time.Duration
	switch *watchdogSpec {
	case "auto":
		watchdog = 10 * time.Second
	case "", "0", "off":
	default:
		d, err := time.ParseDuration(*watchdogSpec)
		if err != nil {
			log.Fatalf("-watchdog must be a duration or 'auto', got %q", *watchdogSpec)
		}
		if d < 0 {
			log.Fatalf("-watchdog must be >= 0, got %v", d)
		}
		watchdog, watchdogFloor = d, d
	}
	if *resume {
		if st, err := os.Stat(*ckptDir); err != nil || !st.IsDir() {
			log.Fatalf("-resume needs an existing checkpoint directory: %s not found (run with -checkpoint-every first, or point -checkpoint-dir at it)", *ckptDir)
		}
	}
	if *supervise && *ckptEvery <= 0 {
		log.Fatal("-supervise needs -checkpoint-every N (N > 0): without periodic checkpoints a recovery can only restart from scratch")
	}
	if *maxRestarts < 0 {
		log.Fatalf("-max-restarts must be >= 0, got %d", *maxRestarts)
	}
	if *transport != "sim" && *transport != "tcp" {
		log.Fatalf("-transport must be sim or tcp, got %q", *transport)
	}
	if *memBudget < 0 {
		log.Fatalf("-mem-budget must be >= 0, got %d (use 0 to disable memory accounting)", *memBudget)
	}
	if *sendWindow < 0 {
		log.Fatalf("-send-window must be >= 0, got %d (use 0 for the default window)", *sendWindow)
	}
	if *sendWindow > 0 && *transport != "tcp" {
		log.Fatal("-send-window needs -transport=tcp: the flow-control window bounds the TCP outbox")
	}
	if *heartbeatInterval < 0 {
		log.Fatalf("-heartbeat-interval must be >= 0, got %v (use 0 for the default)", *heartbeatInterval)
	}
	if *peerTimeout < 0 {
		log.Fatalf("-peer-timeout must be >= 0, got %v (use 0 for the default)", *peerTimeout)
	}
	if (*heartbeatInterval > 0 || *peerTimeout > 0) && *transport != "tcp" {
		log.Fatal("-heartbeat-interval and -peer-timeout need -transport=tcp: they tune the socket failure detector")
	}
	if *peerTimeout > 0 {
		// Mirror the transport's own invariant with a flag-level message: a
		// deadline under two beacon intervals would declare live peers dead
		// on ordinary scheduling jitter.
		hb := *heartbeatInterval
		if hb == 0 {
			hb = 100 * time.Millisecond
		}
		if *peerTimeout < 2*hb {
			log.Fatalf("-peer-timeout %v is below 2x the heartbeat interval %v: raise it or lower -heartbeat-interval", *peerTimeout, hb)
		}
	}
	if *serveAddr != "" {
		if *transport != "sim" {
			log.Fatal("-serve needs -transport=sim: an /apply request reaches one process, and a TCP gang applies a batch only when every process applies it")
		}
		if *supervise {
			log.Fatal("-serve and -supervise are mutually exclusive: the engine owns the world lifecycle in serving mode")
		}
		if *explain {
			log.Fatal("-serve and -explain are mutually exclusive")
		}
	}
	// supervisor.Config.MaxRestarts reads 0 as its default of 3 and a
	// negative budget as none.
	restarts := *maxRestarts
	if restarts == 0 || !*supervise {
		restarts = -1
	}
	if *spawn > 0 {
		if *transport != "tcp" {
			log.Fatal("-spawn needs -transport=tcp: it launches one TCP rank process per slot")
		}
		if *degrade {
			log.Fatal("-spawn cannot -degrade: every child of a dead gang exits 3, so the launcher cannot tell which rank was lost")
		}
		os.Exit(spawnGang(*spawn, restarts, *backoff))
	}

	// TCP child mode: this process hosts exactly one rank of the world.
	var tcpTr *tcp.Transport
	if *transport == "tcp" {
		addrs := strings.Split(*peers, ",")
		if *peers == "" || len(addrs) < 2 {
			log.Fatal("-transport=tcp needs -peers with at least two host:port entries (or use -spawn N)")
		}
		if *rank < 0 || *rank >= len(addrs) {
			log.Fatalf("-rank %d out of range for %d peers", *rank, len(addrs))
		}
		if *supervise {
			log.Fatal("-supervise with -transport=tcp belongs to the launcher: use -spawn N -supervise")
		}
		tr, err := tcp.New(tcp.Config{
			Rank: *rank, Peers: addrs, Seed: int64(*rank),
			SendWindow:     *sendWindow,
			HeartbeatEvery: *heartbeatInterval,
			PeerTimeout:    *peerTimeout,
		})
		if err != nil {
			log.Fatal(err)
		}
		tcpTr = tr
	}

	var g *graph.Graph
	var err error
	if *file != "" {
		g, err = graph.ReadFile(*file)
	} else {
		g, err = graph.Load(*gname)
	}
	if err != nil {
		log.Fatal(err)
	}

	plans := map[string]paralagg.PlanPolicy{
		"dynamic": paralagg.Dynamic, "static-left": paralagg.StaticLeft,
		"static-right": paralagg.StaticRight, "anti": paralagg.AntiDynamic,
	}
	plan, ok := plans[*planName]
	if !ok {
		log.Fatalf("unknown plan %q", *planName)
	}
	cfg := paralagg.Config{
		Ranks: *ranks, Subs: *subs, Plan: plan,
		Watchdog: watchdog, WatchdogFloor: watchdogFloor,
		Integrity: *integrity, MemBudget: *memBudget,
		CollectiveSchedule: *collSched,
	}
	if tcpTr != nil {
		// Transport and Ranks are mutually exclusive (Config.Validate): the
		// world size is the transport's gang size.
		cfg.Transport = tcpTr
		cfg.Ranks = 0
	}
	// Topology: an explicit file wins; otherwise a TCP gang groups ranks by
	// the host part of their -peers entries, so a -spawn launch (which
	// forwards both flags to every child) carries its placement into the
	// schedule builder for free.
	if *topoFile != "" {
		size := *ranks
		if tcpTr != nil {
			size = tcpTr.Size()
		}
		topo, err := paralagg.ParseTopologyFile(*topoFile, size)
		if err != nil {
			log.Fatalf("-topology: %v", err)
		}
		cfg.Topology = topo
	} else if tcpTr != nil {
		cfg.Topology = paralagg.TopologyFromAddrs(strings.Split(*peers, ","))
	}
	if *ckptEvery > 0 || *resume {
		cfg.CheckpointEvery = *ckptEvery
		cfg.Checkpoints = paralagg.NewFileCheckpointSinkKeep(*ckptDir, *ckptKeep)
		cfg.Resume = *resume
	}

	// Observability consumers: a Chrome-trace recorder, a live HTTP metrics
	// server, or both teed together. TCP children derive per-rank outputs so
	// gang members never clobber each other.
	var recorder *paralagg.TraceRecorder
	var liveSrv *paralagg.LiveServer
	var observers []paralagg.Observer
	if *tracePath != "" {
		recorder = paralagg.NewTraceRecorder()
		observers = append(observers, recorder)
	}
	if *metricsAddr != "" {
		addr := *metricsAddr
		if tcpTr != nil {
			addr, err = rankAddr(addr, *rank)
			if err != nil {
				log.Fatalf("-metrics-addr: %v", err)
			}
		}
		liveSrv, err = paralagg.StartLiveServer(addr)
		if err != nil {
			log.Fatalf("-metrics-addr: %v", err)
		}
		defer liveSrv.Close()
		if !*quiet {
			fmt.Fprintf(os.Stderr, "serving /metrics, /vars, /debug/pprof on http://%s\n", liveSrv.Addr())
		}
		observers = append(observers, liveSrv)
	}
	cfg.Observer = paralagg.TeeObservers(observers...)

	// Build the (program, loader) pair, either from the textual frontend or
	// a built-in query, then run it — plainly or under supervision.
	var prog *paralagg.Program
	var load func(*paralagg.Rank) error
	if *programFile != "" {
		src, err := os.ReadFile(*programFile)
		if err != nil {
			log.Fatal(err)
		}
		prog, err = paralagg.ParseProgram(string(src))
		if err != nil {
			log.Fatal(err)
		}
		if *explain {
			plan, err := prog.Explain()
			if err != nil {
				log.Fatal(err)
			}
			fmt.Print(plan)
			return
		}
		// Load the graph's edges into a relation named "edge" whose arity
		// the program declares (2 = unweighted, 3 = weighted).
		d := prog.Decl("edge")
		if d == nil {
			log.Fatal("program must declare an 'edge' relation to receive the graph")
		}
		load = func(rk *paralagg.Rank) error {
			// One row for every edge: emit copies it (see LoadShare).
			row := make(paralagg.Tuple, 0, 3)
			return rk.LoadShare("edge", len(g.Edges), func(i int, emit func(paralagg.Tuple)) {
				e := g.Edges[i]
				if d.Arity >= 3 {
					emit(append(row, e.U, e.V, e.W))
				} else {
					emit(append(row, e.U, e.V))
				}
			})
		}
	} else {
		if !*quiet && !*jsonOut {
			worldRanks := *ranks
			if tcpTr != nil {
				worldRanks = tcpTr.Size()
			}
			fmt.Printf("%s on %v\nranks=%d subs=%d plan=%s\n\n", *query, g, worldRanks, *subs, *planName)
		}
		sources := g.Sources(*nsources, 1)
		switch *query {
		case "sssp":
			prog = queries.SSSPProgram()
			load = func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, sources) }
		case "cc":
			prog = queries.CCProgram()
			load = func(rk *paralagg.Rank) error { return queries.LoadCC(rk, g) }
		case "tc":
			prog = queries.TCProgram()
			load = func(rk *paralagg.Rank) error { return queries.LoadTC(rk, g) }
		case "pagerank":
			prog = queries.PageRankProgram(*iters, g.Nodes, 0.85)
			load = func(rk *paralagg.Rank) error { return queries.LoadPageRank(rk, g) }
		case "lsp":
			prog = queries.LspProgram()
			load = func(rk *paralagg.Rank) error { return queries.LoadSSSP(rk, g, sources) }
		default:
			fmt.Fprintf(os.Stderr, "unknown query %q (sssp, cc, tc, pagerank, lsp)\n", *query)
			os.Exit(2)
		}
	}

	if *serveAddr != "" {
		runServe(prog, cfg, load, *serveAddr, *quiet)
		return
	}

	var res *paralagg.Result
	if *supervise {
		var rep *paralagg.SuperviseReport
		res, rep, err = paralagg.Supervise(prog, paralagg.SuperviseConfig{
			Config:          cfg,
			MaxRestarts:     restarts,
			Degrade:         *degrade,
			RecoveryBackoff: *backoff,
			Logf: func(f string, a ...any) {
				fmt.Fprintf(os.Stderr, f+"\n", a...)
			},
		}, load, nil)
		if err != nil {
			log.Fatal(err)
		}
		if rep.RecoveryAttempts > 0 {
			fmt.Printf("supervised: %d recoveries, ranks lost %v, finished on %d ranks\n",
				rep.RecoveryAttempts, rep.RanksLost, rep.FinalRanks)
		}
	} else {
		res, err = paralagg.Exec(prog, cfg, load, nil)
		if err != nil {
			if tcpTr != nil {
				// A structured rank failure over TCP exits with code 3 so the
				// -spawn launcher can tell "peer died" from "bad invocation"
				// and respawn the gang with -resume. A peer lost during mesh
				// establishment counts too: the gang dies together.
				tcpTr.Kill()
				_, structured := paralagg.AsRankFailure(err)
				if structured || errors.Is(err, paralagg.ErrPeerUnreachable) {
					log.Printf("rank %d: %v", *rank, err)
					os.Exit(exitRankFailed)
				}
			}
			log.Fatal(err)
		}
	}
	if tcpTr != nil {
		tcpTr.Close()
	}

	// The trace is written even under -quiet: gang children each carry one
	// rank's track, so every member's file matters.
	if recorder != nil {
		out := *tracePath
		if tcpTr != nil {
			out = rankPath(out, *rank)
		}
		if err := recorder.WriteFile(out); err != nil {
			log.Fatalf("-trace: %v", err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", recorder.Spans(), out)
		}
	}

	if *quiet {
		return
	}
	if *jsonOut {
		doc, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n", doc)
		return
	}
	fmt.Print(res.Summary())
	if res.MemPeakBytes > 0 {
		fmt.Printf("mem: peak=%d budget=%d (%.1f%%)\n",
			res.MemPeakBytes, *memBudget, 100*float64(res.MemPeakBytes)/float64(*memBudget))
	}
	if tcpTr != nil {
		n := tcpTr.Net()
		fmt.Printf("net: frames=%d/%d dialRetries=%d reconnects=%d retransmits=%d dups=%d hbMisses=%d crcErrors=%d stalls=%d outboxPeak=%d\n",
			n.FramesSent, n.FramesRecv, n.DialRetries, n.Reconnects, n.Retransmits, n.DupsDropped, n.HeartbeatMisses, n.CRCErrors, n.ThrottleStalls, n.OutboxPeakFrames)
	}
	fmt.Println("\nphase breakdown (simulated ms):")
	for _, ph := range metrics.PhaseNames {
		fmt.Printf("  %-14s %10.3f\n", ph, res.PhaseSeconds[ph]*1e3)
	}
}

// rankPath derives a per-rank output file from a shared -trace path by
// inserting ".rankN" before the extension: out.json -> out.rank2.json. Gang
// children forwarded the same flag value must not clobber one another.
func rankPath(path string, rank int) string {
	ext := ""
	if i := strings.LastIndexByte(path, '.'); i > strings.LastIndexByte(path, '/') {
		path, ext = path[:i], path[i:]
	}
	return fmt.Sprintf("%s.rank%d%s", path, rank, ext)
}

// rankAddr offsets a shared -metrics-addr port by the rank so every gang
// member serves its own endpoint. Port 0 (pick a free port) passes through.
func rankAddr(addr string, rank int) (string, error) {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "", err
	}
	p, err := strconv.Atoi(port)
	if err != nil {
		return "", fmt.Errorf("port %q is not numeric: %v", port, err)
	}
	if p == 0 {
		return addr, nil
	}
	return net.JoinHostPort(host, strconv.Itoa(p+rank)), nil
}

// runServe holds the converged relations resident and answers point queries
// and mutation batches over HTTP until the process is interrupted. The
// initial load is just the first Apply; every later /apply re-converges from
// the existing Δ instead of recomputing from zero.
func runServe(prog *paralagg.Program, cfg paralagg.Config, load func(*paralagg.Rank) error, addr string, quiet bool) {
	srv, err := paralagg.StartLiveServer(addr)
	if err != nil {
		log.Fatalf("-serve: %v", err)
	}
	defer srv.Close()
	cfg.Observer = paralagg.TeeObservers(cfg.Observer, srv)
	eng, err := paralagg.Open(cfg, prog)
	if err != nil {
		log.Fatalf("-serve: %v", err)
	}
	defer eng.Close()
	stats, err := eng.Apply(context.Background(), paralagg.Mutation{Load: load})
	if err != nil {
		log.Fatalf("-serve: initial fixpoint: %v", err)
	}
	eng.ServeLive(srv)
	if !quiet {
		fmt.Fprintf(os.Stderr, "converged in %d iterations; serving /query, /topk, /apply (plus /metrics, /vars, /debug/pprof) on http://%s\n",
			stats.Iterations, srv.Addr())
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	if !quiet {
		es := eng.Stats()
		fmt.Fprintf(os.Stderr, "shutting down: %d mutation batches applied, %d queries answered\n", es.Applies, es.Queries)
	}
}
