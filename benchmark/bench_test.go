package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// lastLine decodes the driver-facing JSON object a run prints last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return res
}

// TestSmoke runs every workload at smoke size in both driver modes and
// checks the shape of what comes out: the result object, the metric names of
// each mode, units, and that no operation failed its correctness check.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir()) // scratch files land under the test's own directory
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var stdout, stderr bytes.Buffer
			args := []string{"-smoke", "-workload", w.Name, "-seed", "7", "-trace", []string{"0", "1"}[trace]}
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, stderr.String())
			}
			res := lastLine(t, stdout.String())
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%v: correct=%v attempted=%d failed=%d", args, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%v: %d metrics, want %d", args, len(res.Metrics), len(defs))
			}
			for _, m := range defs {
				v, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%v: metric %s missing", args, m.Name)
				} else if v.Unit != m.Unit {
					t.Errorf("%v: metric %s has unit %q, want %q", args, m.Name, v.Unit, m.Unit)
				}
				if trace == 0 && v.Value <= 0 {
					t.Errorf("%v: end-to-end metric %s = %v, must be positive", args, m.Name, v.Value)
				}
			}
		}
	}
}

// TestFullReportAndTrace runs the no-argument form at smoke size: every
// workload, both passes, a report file, and a trace whose spans nest
// workload → op → iteration → phase.
func TestFullReportAndTrace(t *testing.T) {
	dir := t.TempDir()
	t.Chdir(dir)
	var stdout, stderr bytes.Buffer
	args := []string{"-smoke", "-out", "report.json", "-trace-out", "trace.json"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	if res := lastLine(t, stdout.String()); !res.Correct || len(res.Metrics) != len(workloads)*(len(endToEnd)+len(perLayer)) {
		t.Errorf("full run: correct=%v, %d metrics", res.Correct, len(res.Metrics))
	}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !strings.Contains(stdout.String(), "\n"+m.Name+" ") {
			t.Errorf("metric %s is not printed by name", m.Name)
		}
	}
	var rep report
	b, err := os.ReadFile("report.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) || rep.Env.GoVersion == "" || rep.Env.NumCPU < 1 {
		t.Errorf("report: %d workloads, env %+v", len(rep.Workloads), rep.Env)
	}

	var events []chromeEvent
	b, err = os.ReadFile("trace.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatal(err)
	}
	cat := map[int]string{}    // span id → what kind of span it is
	parent := map[int]int{}    // span id → parent span id
	chains := map[string]int{} // op name → phases found under workload → op → iteration
	for _, e := range events {
		id := int(e.Args["span"].(float64))
		parent[id] = int(e.Args["parent"].(float64))
		switch {
		case e.Cat == "workload":
			cat[id] = "workload"
		case strings.HasPrefix(e.Name, "iter "):
			cat[id] = "iteration"
		case int(e.Args["op"].(float64)) == id:
			cat[id] = "op:" + e.Name
		default:
			cat[id] = "phase"
		}
	}
	for id, c := range cat {
		if c != "phase" {
			continue
		}
		it := parent[id]
		op := parent[it]
		if cat[it] == "iteration" && strings.HasPrefix(cat[op], "op:") && cat[parent[op]] == "workload" {
			chains[strings.TrimPrefix(cat[op], "op:")]++
		}
	}
	for _, op := range []string{"Exec", "Apply.insert", "Apply.delete"} {
		if chains[op] == 0 {
			t.Errorf("no phase span nests workload → %s → iteration → phase", op)
		}
	}
	for _, op := range []string{"Query.point", "Query.scan"} {
		found := false
		for _, c := range cat {
			found = found || c == "op:"+op
		}
		if !found {
			t.Errorf("no %s op span in the trace", op)
		}
	}
}

// manifest is the shape of BENCHMARK.json at the repository root.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// TestManifest holds BENCHMARK.json to the tables the program reports from
// and to the limits the driver puts on it.
func TestManifest(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Workloads, workloads) {
		t.Errorf("BENCHMARK.json workloads differ from defs.go")
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end differs from defs.go")
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from defs.go")
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d out of 1..60", m.RunSeconds)
	}
	// 4 + 22 runs per workload, each run_seconds plus set-up, inside 3420 s.
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+8) > 3420 {
		t.Errorf("%d runs of %d s (+8 s set-up each) do not fit 3420 s", runs, m.RunSeconds)
	}
	seen := map[string]bool{}
	for _, w := range m.Workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad or repeated name, or why too long", w.Name)
		}
		seen[w.Name] = true
	}
	setup := false
	for i, d := range append(append([]metricDef(nil), m.EndToEnd...), m.PerLayer...) {
		e2e := i < len(m.EndToEnd)
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric %q: bad or repeated name", d.Name)
		}
		seen[d.Name] = true
		if !regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`).MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: direction %q", d.Name, d.Better)
		}
		if e2e && (d.Bound <= 0 || d.Bound > 0.25) {
			t.Errorf("metric %s: bound %v out of (0, 0.25]", d.Name, d.Bound)
		}
		if !e2e && d.Bound != 0 {
			t.Errorf("per-layer metric %s has a bound", d.Name)
		}
		if d.Name == "setup_s" && e2e && d.Unit == "s" && d.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Errorf("no end-to-end setup_s in seconds, lower is better")
	}
	for _, name := range exactCounters {
		if !seen[name] {
			t.Errorf("exact counter %s is not a per-layer metric", name)
		}
	}
	if len(m.Paths) != 1 || m.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", m.Paths)
	}
}
