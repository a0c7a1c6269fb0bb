package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"paralagg"
	"paralagg/internal/metrics"
)

// span is one traced interval. Spans nest workload → op → iteration → phase
// through Parent; every span under one op shares its Op id. Times are
// wall-clock UnixNano.
type span struct {
	ID, Parent, Op int
	Name, Layer    string
	Rank           int // -1 for client-side spans
	Start, End     int64
}

// rawEvent is the part of an Observer event the tracer keeps. Events are
// pooled by the runtime, so the fields are copied out inside OnEvent.
type rawEvent struct {
	kind       paralagg.EventKind
	rank, iter int
	stratum    int
	name       string
	start, end int64
	changed    uint64
	// Phase events: the sample's cost-model inputs. Iteration events: the
	// iteration's communication delta.
	work, bytes, msgs int64
}

// tracer is the benchmark-owned Observer plus the span store. The runtime is
// measured from outside: op spans are recorded by the benchmark around each
// public call, iteration and phase spans come from the Observer stream the
// runtime already emits. Spans stay in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	spans  []span
	nextID int
	root   int        // current workload span
	events []rawEvent // events of the op in flight
}

func newTracer() *tracer { return &tracer{} }

// OnEvent implements paralagg.Observer. Every rank goroutine emits.
func (t *tracer) OnEvent(e *paralagg.Event) {
	if e.Kind != paralagg.EventPhase && e.Kind != paralagg.EventIteration {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, rawEvent{
		kind: e.Kind, rank: e.Rank, iter: e.Iter, stratum: e.Stratum,
		name: e.Name, start: e.Start, end: e.End, changed: e.Changed,
		work: e.Work, bytes: e.Bytes, msgs: e.Msgs,
	})
	t.mu.Unlock()
}

func (t *tracer) add(s span) int {
	t.nextID++
	s.ID = t.nextID
	t.spans = append(t.spans, s)
	return s.ID
}

// beginWorkload opens the root span the following ops hang under.
func (t *tracer) beginWorkload(name string) {
	t.mu.Lock()
	t.root = t.add(span{Name: name, Layer: "workload", Rank: -1, Start: time.Now().UnixNano()})
	t.mu.Unlock()
}

func (t *tracer) endWorkload() {
	t.mu.Lock()
	t.spans[t.root-1].End = time.Now().UnixNano() // span IDs are 1-based positions
	t.mu.Unlock()
}

// phaseLayer names the module that owns most of a metered phase.
var phaseLayer = map[string]string{
	"planning": "ra", "intra-bucket": "mpi", "local-join": "ra",
	"all-to-all": "mpi", "local-agg": "relation", "other": "relation",
	"rebalance": "relation",
}

// attribution is what one traced op's iteration and phase spans add up to.
// Phase seconds follow the critical-path convention the cost model uses:
// per iteration the maximum over ranks, summed over iterations.
type attribution struct {
	iterations  int
	deltaTuples uint64
	phase       map[string]float64 // seconds by phase name
	other       float64            // iteration wall not inside a named phase, plus "other" samples
	iterWall    float64            // Σ per-iteration wall (max over ranks)
	floorUS     []float64          // wall of iterations with Δ ≤ 16 tuples
	simNS       float64            // the cost model's critical path over the same samples
	commBytes   int64              // Σ rank 0's per-iteration communication deltas
	commMsgs    int64
}

// add folds another op's attribution into a (a serve cycle is two Applys).
func (a *attribution) add(b attribution) {
	if a.phase == nil {
		a.phase = map[string]float64{}
	}
	a.iterations += b.iterations
	a.deltaTuples += b.deltaTuples
	for p, d := range b.phase {
		a.phase[p] += d
	}
	a.other += b.other
	a.iterWall += b.iterWall
	a.floorUS = append(a.floorUS, b.floorUS...)
	a.simNS += b.simNS
	a.commBytes += b.commBytes
	a.commMsgs += b.commMsgs
}

// op runs fn as one traced operation: an op span around the call, then the
// Observer events fn caused folded into iteration and phase spans beneath it.
func (t *tracer) op(name string, fn func()) (time.Duration, attribution) {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
	start := time.Now()
	fn()
	end := time.Now()

	t.mu.Lock()
	defer t.mu.Unlock()
	opID := t.add(span{Parent: t.root, Name: name, Layer: "engine", Rank: -1,
		Start: start.UnixNano(), End: end.UnixNano()})
	t.spans[len(t.spans)-1].Op = opID

	// One record per (stratum, iteration, rank): the iteration span, its wall
	// time, and its phase samples' measured seconds and modelled cost.
	type ik struct{ stratum, iter int }
	type rankIter struct {
		span        int
		wall        float64
		named, cost map[string]float64
	}
	iters := map[ik]map[int]*rankIter{}
	changed := map[ik]uint64{}
	a := attribution{phase: map[string]float64{}}
	for _, e := range t.events {
		if e.kind != paralagg.EventIteration {
			continue
		}
		if e.rank == 0 {
			a.commBytes += e.bytes
			a.commMsgs += e.msgs
		}
		i := ik{e.stratum, e.iter}
		if iters[i] == nil {
			iters[i] = map[int]*rankIter{}
		}
		iters[i][e.rank] = &rankIter{
			span: t.add(span{Parent: opID, Op: opID, Name: fmt.Sprintf("iter %d", e.iter),
				Layer: "ra", Rank: e.rank, Start: e.start, End: e.end}),
			wall:  float64(e.end-e.start) / 1e9,
			named: map[string]float64{}, cost: map[string]float64{},
		}
		changed[i] = e.changed
	}
	for _, e := range t.events {
		if e.kind != paralagg.EventPhase {
			continue
		}
		parent := opID
		ri := iters[ik{e.stratum, e.iter}][e.rank]
		if ri != nil {
			parent = ri.span
		}
		t.add(span{Parent: parent, Op: opID, Name: e.name, Layer: phaseLayer[e.name],
			Rank: e.rank, Start: e.start, End: e.end})
		if ri != nil {
			ri.named[e.name] += float64(e.end-e.start) / 1e9
			ri.cost[e.name] += metrics.DefaultCostModel.Cost(
				metrics.Sample{Work: e.work, Bytes: e.bytes, Msgs: e.msgs})
		}
	}

	for i, ranks := range iters {
		a.iterations++
		a.deltaTuples += changed[i]
		w, self := 0.0, 0.0
		perPhase, worstCost := map[string]float64{}, map[string]float64{}
		for _, ri := range ranks {
			w = max(w, ri.wall)
			covered := 0.0
			for p, d := range ri.named {
				perPhase[p] = max(perPhase[p], d)
				if p != "other" {
					covered += d
				}
			}
			self = max(self, ri.wall-covered)
			for p, c := range ri.cost {
				worstCost[p] = max(worstCost[p], c)
			}
		}
		for p, d := range perPhase {
			a.phase[p] += d
		}
		// Simulated time, as metrics.BuildReport computes it: per iteration
		// and phase the costliest rank, summed.
		for _, c := range worstCost {
			a.simNS += c
		}
		a.other += max(self, 0)
		a.iterWall += w
		if changed[i] <= 16 {
			a.floorUS = append(a.floorUS, w*1e6)
		}
	}
	return end.Sub(start), a
}

// note records a client-side op that causes no runtime events (a query burst
// or a scan) as a leaf op span.
func (t *tracer) note(name string, start, end time.Time) {
	t.mu.Lock()
	id := t.add(span{Parent: t.root, Name: name, Layer: "engine", Rank: -1,
		Start: start.UnixNano(), End: end.UnixNano()})
	t.spans[len(t.spans)-1].Op = id
	t.mu.Unlock()
}

// selfTimes returns, per layer, the summed self time of every span of the
// current workload: its duration minus the part of that interval its child
// spans cover. Children on different ranks overlap in time, so coverage is
// the union of their intervals, not the sum.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	spans := t.spans[t.root-1:] // the workload span and everything under it
	children := map[int][][2]int64{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
	}
	out := map[string]float64{}
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered, edge := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], edge), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		if self := (s.End - s.Start) - covered; self > 0 {
			out[s.Layer] += float64(self) / 1e9
		}
	}
	return out
}

// chromeEvent is one Trace Event Format record (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span as a complete event: one track per rank plus
// a client track (tid 0), span/parent/op ids in args so the nesting survives
// the flat format.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var base int64
	if len(spans) > 0 {
		base = spans[0].Start
	}
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS: float64(s.Start-base) / 1e3, Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Rank + 1,
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "op": s.Op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return fmt.Errorf("write trace %s: %w", path, err)
	}
	return f.Close()
}
