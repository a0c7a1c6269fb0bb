package paralagg

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paralagg/internal/mpi"
)

// ccProgram is the smallest recursive-aggregation program the observability
// tests can run quickly: min-label connected components over a path graph.
func ccProgram(t *testing.T) *Program {
	t.Helper()
	p := NewProgram()
	if err := p.DeclareSet("edge", 2, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.DeclareAgg("cc", 1, MinAgg); err != nil {
		t.Fatal(err)
	}
	p.Add(R(A("cc", Var("y"), Var("z")),
		A("cc", Var("x"), Var("z")),
		A("edge", Var("x"), Var("y"))))
	return p
}

// loadPathGraph loads an undirected path graph 0-1-...-n and seeds cc(i, i).
func loadPathGraph(n int) func(*Rank) error {
	return func(rk *Rank) error {
		if err := rk.LoadShare("edge", n, func(i int, emit func(Tuple)) {
			emit(Tuple{uint64(i), uint64(i + 1)})
			emit(Tuple{uint64(i + 1), uint64(i)})
		}); err != nil {
			return err
		}
		var seeds []Tuple
		for v := uint64(rk.ID()); v <= uint64(n); v += uint64(rk.Size()) {
			seeds = append(seeds, Tuple{v, v})
		}
		return rk.Load("cc", seeds)
	}
}

// TestConfigValidate drives every rejected combination through Exec's
// front-door validation.
func TestConfigValidate(t *testing.T) {
	sink := NewMemoryCheckpointSink()
	fake := fakeTransport{}
	cases := []struct {
		name string
		cfg  Config
		want string // substring of the error; "" = valid
	}{
		{"default", Config{}, ""},
		{"plain", Config{Ranks: 4, Subs: 2}, ""},
		{"negative ranks", Config{Ranks: -1}, "Ranks must be >= 0"},
		{"transport plus ranks", Config{Transport: fake, Ranks: 4}, "mutually exclusive"},
		{"transport alone", Config{Transport: fake}, ""},
		{"negative subs", Config{Subs: -2}, "Subs must be >= 0"},
		{"negative subsfor", Config{SubsFor: map[string]int{"edge": -1}}, `SubsFor["edge"]`},
		{"negative maxiters", Config{MaxIters: -3}, "MaxIters must be >= 0"},
		{"negative watchdog", Config{Watchdog: -time.Second}, "Watchdog must be >= 0"},
		{"negative watchdog floor", Config{Watchdog: time.Second, WatchdogFloor: -time.Second}, "WatchdogFloor must be >= 0"},
		{"watchdog floor above ceiling", Config{Watchdog: time.Second, WatchdogFloor: 2 * time.Second}, "exceeds Config.Watchdog"},
		{"watchdog floor without watchdog", Config{WatchdogFloor: time.Second}, "exceeds Config.Watchdog"},
		{"fixed watchdog", Config{Watchdog: time.Second, WatchdogFloor: time.Second}, ""},
		{"negative checkpoint-every", Config{CheckpointEvery: -1}, "CheckpointEvery must be >= 0"},
		{"checkpoint without sink", Config{CheckpointEvery: 4}, "needs Config.Checkpoints"},
		{"checkpoint with sink", Config{CheckpointEvery: 4, Checkpoints: sink}, ""},
		{"resume without sink", Config{Resume: true}, "no sink to restore from"},
		{"resume with sink", Config{Resume: true, Checkpoints: sink}, ""},
		{"schedule flat", Config{CollectiveSchedule: "flat"}, ""},
		{"schedule tree", Config{CollectiveSchedule: "tree"}, ""},
		{"schedule ring", Config{CollectiveSchedule: "ring"}, "want flat or tree"},
		{"schedule auto", Config{CollectiveSchedule: "auto"}, "want flat or tree"},
		{"schedule unknown", Config{CollectiveSchedule: "star"}, "unknown collective schedule"},
		{"topology matching", Config{Ranks: 2, Topology: TopologyFromHosts([]string{"a", "b"})}, ""},
		{"topology wrong size", Config{Ranks: 4, Topology: TopologyFromHosts([]string{"a", "b"})}, "Config.Topology"},
		{"topology default ranks", Config{Topology: TopologyFromHosts([]string{"a", "b", "a", "b"})}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestExecRejectsInvalidConfig confirms Exec runs validation before building
// a world.
func TestExecRejectsInvalidConfig(t *testing.T) {
	_, err := Exec(ccProgram(t), Config{Ranks: -5}, loadPathGraph(4), nil)
	if err == nil || !strings.Contains(err.Error(), "Ranks must be >= 0") {
		t.Fatalf("Exec accepted an invalid config: %v", err)
	}
}

// fakeTransport satisfies the Transport interface for validation tests; it
// is never started.
type fakeTransport struct{}

func (fakeTransport) Self() int                       { return 0 }
func (fakeTransport) Size() int                       { return 2 }
func (fakeTransport) Send(int, int, []mpi.Word) error { return nil }
func (fakeTransport) Start(mpi.Handler) error         { return nil }
func (fakeTransport) Close() error                    { return nil }
func (fakeTransport) Net() mpi.NetStats               { return mpi.NetStats{} }

// TestObserverReceivesEventStream runs a real fixpoint with an observer
// attached and checks the stream's shape end to end.
func TestObserverReceivesEventStream(t *testing.T) {
	var mu sync.Mutex
	kinds := map[EventKind]int{}
	var phaseNames []string
	var relEvents []*Event
	var runStart, runEnd *Event
	obsv := ObserverFunc(func(e *Event) {
		mu.Lock()
		defer mu.Unlock()
		kinds[e.Kind]++
		switch e.Kind {
		case EventPhase:
			phaseNames = append(phaseNames, e.Name)
		case EventRelation:
			relEvents = append(relEvents, e.Clone())
		case EventRunStart:
			runStart = e.Clone()
		case EventRunEnd:
			runEnd = e.Clone()
		}
	})

	res, err := Exec(ccProgram(t), Config{Ranks: 3, Observer: obsv}, loadPathGraph(6), nil)
	if err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if runStart == nil || runStart.Ranks != 3 {
		t.Fatalf("no run-start event with the world size: %+v", runStart)
	}
	if runEnd == nil || runEnd.Err != "" {
		t.Fatalf("no clean run-end event: %+v", runEnd)
	}
	if kinds[EventStratumStart] == 0 {
		t.Fatal("no stratum-start events")
	}
	// One iteration event per rank per completed iteration.
	if got, want := kinds[EventIteration], 3*res.Iterations; got != want {
		t.Fatalf("iteration events = %d, want ranks×iters = %d", got, want)
	}
	if kinds[EventPhase] == 0 {
		t.Fatal("no phase events")
	}
	seen := map[string]bool{}
	for _, n := range phaseNames {
		seen[n] = true
	}
	for _, want := range []string{"local-join", "all-to-all", "local-agg"} {
		if !seen[want] {
			t.Fatalf("no %q phase samples (saw %v)", want, seen)
		}
	}
	// Relation events carry the global count, the Δ, and the full per-rank
	// distribution.
	var ccFinal *Event
	for _, e := range relEvents {
		if e.Name == "cc" {
			ccFinal = e
		}
	}
	if ccFinal == nil {
		t.Fatal("no relation events for cc")
	}
	if ccFinal.Count != res.Counts["cc"] {
		t.Fatalf("final cc relation event count %d, want %d", ccFinal.Count, res.Counts["cc"])
	}
	if len(ccFinal.PerRank) != 3 {
		t.Fatalf("per-rank distribution has %d entries, want 3", len(ccFinal.PerRank))
	}
	var sum uint64
	for _, c := range ccFinal.PerRank {
		sum += uint64(c)
	}
	if sum != ccFinal.Count {
		t.Fatalf("per-rank counts sum to %d, want %d", sum, ccFinal.Count)
	}
}

// TestObserverSeesCheckpointAndRecovery checks the fault-tolerance events.
func TestObserverSeesCheckpointAndRecovery(t *testing.T) {
	sink := NewMemoryCheckpointSink()
	var mu sync.Mutex
	kinds := map[EventKind]int{}
	obsv := ObserverFunc(func(e *Event) {
		mu.Lock()
		kinds[e.Kind]++
		mu.Unlock()
	})
	cfg := Config{Ranks: 2, Observer: obsv, CheckpointEvery: 2, Checkpoints: sink}
	if _, err := Exec(ccProgram(t), cfg, loadPathGraph(8), nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	ckpts := kinds[EventCheckpoint]
	mu.Unlock()
	if ckpts == 0 {
		t.Fatal("no checkpoint events")
	}

	cfg.Resume = true
	if _, err := Exec(ccProgram(t), cfg, loadPathGraph(8), nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	recov := kinds[EventRecovery]
	mu.Unlock()
	if recov == 0 {
		t.Fatal("no recovery events on resume")
	}
}

// TestRankAccessorsRejectUnknownRelations covers the (value, error) redesign:
// unknown names report errors instead of panicking.
func TestRankAccessorsRejectUnknownRelations(t *testing.T) {
	_, err := Exec(ccProgram(t), Config{Ranks: 2}, loadPathGraph(4), func(rk *Rank) error {
		if _, err := rk.Query(QuerySpec{Relation: "nope", CountOnly: true}); err == nil || !strings.Contains(err.Error(), `unknown relation "nope"`) {
			return errorf(t, "Query: %v", err)
		}
		if err := rk.Each("nope", func(Tuple) {}); err == nil || !strings.Contains(err.Error(), `unknown relation "nope"`) {
			return errorf(t, "Each: %v", err)
		}
		// Known relations still answer.
		qr, err := rk.Query(QuerySpec{Relation: "cc", CountOnly: true})
		if err != nil || qr.Count == 0 {
			return errorf(t, "Query(cc) count = %d, %v", qr.Count, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func errorf(t *testing.T, format string, args ...any) error {
	t.Helper()
	t.Errorf(format, args...)
	return nil
}

// TestResultAssembly checks Summary and the PhaseSeconds bookkeeping Exec
// builds the report from.
func TestResultAssembly(t *testing.T) {
	res, err := Exec(ccProgram(t), Config{Ranks: 2}, loadPathGraph(6), nil)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{"ranks=2", "cc:", "edge:", "tuples"} {
		if !strings.Contains(s, want) {
			t.Fatalf("Summary missing %q:\n%s", want, s)
		}
	}
	if res.Iterations == 0 || res.Iterations != sum(res.StratumIters) {
		t.Fatalf("Iterations %d != sum of StratumIters %v", res.Iterations, res.StratumIters)
	}
	// PhaseSeconds must decompose SimSeconds: the named phases sum to the
	// total (within float tolerance).
	var phaseSum float64
	for _, v := range res.PhaseSeconds {
		phaseSum += v
	}
	if diff := res.SimSeconds - phaseSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("PhaseSeconds sum %.12f != SimSeconds %.12f", phaseSum, res.SimSeconds)
	}
	// The per-iteration series re-sums to the same totals.
	if len(res.IterPhaseSeconds) != res.Iterations {
		t.Fatalf("IterPhaseSeconds has %d entries, want %d", len(res.IterPhaseSeconds), res.Iterations)
	}
	perPhase := map[string]float64{}
	for _, it := range res.IterPhaseSeconds {
		for ph, v := range it {
			perPhase[ph] += v
		}
	}
	for ph, total := range res.PhaseSeconds {
		if diff := total - perPhase[ph]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("phase %q: per-iteration sum %.12f != total %.12f", ph, perPhase[ph], total)
		}
	}
}

// TestResultJSONRoundTrip pins the wire names and checks the document
// survives a round trip.
func TestResultJSONRoundTrip(t *testing.T) {
	res, err := Exec(ccProgram(t), Config{Ranks: 2}, loadPathGraph(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"ranks", "stratum_iters", "iterations", "counts", "sim_seconds",
		"phase_seconds", "iter_phase_seconds", "comm_bytes", "comm_msgs",
	} {
		if _, ok := doc[field]; !ok {
			t.Fatalf("JSON document missing field %q: %s", field, data)
		}
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, &back) {
		t.Fatalf("round trip changed the result:\n%+v\n%+v", res, &back)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// soloTransport is a one-rank wire that counts how often its robustness
// counters are sampled. Every message of a one-rank world is a local
// hand-off, so Send is never reached.
type soloTransport struct{ netCalls atomic.Int64 }

func (*soloTransport) Self() int                       { return 0 }
func (*soloTransport) Size() int                       { return 1 }
func (*soloTransport) Send(int, int, []mpi.Word) error { return errors.New("solo: nobody to send to") }
func (*soloTransport) Start(mpi.Handler) error         { return nil }
func (*soloTransport) Close() error                    { return nil }
func (s *soloTransport) Net() mpi.NetStats {
	s.netCalls.Add(1)
	return mpi.NetStats{}
}

// Metering an exchange diffs two Stats snapshots around it (the join
// kernel's intra-bucket exchange, materialize's all-to-alls): that is the
// per-iteration hot path and must read the world's own meters only. Sampling
// the transport — which allocates its per-peer rows — belongs to the
// observer's iteration event, so a whole fixpoint without an observer never
// calls Net, and one with an observer does.
func TestSnapshotDoesNotProbeTransport(t *testing.T) {
	quiet := &soloTransport{}
	res, err := Exec(ccProgram(t), Config{Transport: quiet}, loadPathGraph(24), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations < 10 || res.CommMsgs == 0 {
		t.Fatalf("fixpoint ran %d iterations and metered %d messages: the metering sites were not exercised", res.Iterations, res.CommMsgs)
	}
	if n := quiet.netCalls.Load(); n != 0 {
		t.Errorf("observer-less fixpoint sampled the transport's counters %d times, want 0", n)
	}

	watched := &soloTransport{}
	cfg := Config{Transport: watched, Observer: ObserverFunc(func(*Event) {})}
	if _, err := Exec(ccProgram(t), cfg, loadPathGraph(24), nil); err != nil {
		t.Fatal(err)
	}
	if watched.netCalls.Load() == 0 {
		t.Error("observed fixpoint never sampled the transport's counters: the iteration event lost its net deltas")
	}
}
