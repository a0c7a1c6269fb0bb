package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// rows is the test driver: it runs every row of suite whose name starts
// with prefix under schedule, as subtests named by the rest of the row's
// name — one t.Run level per "/"-separated part. A prefix naming one whole
// row runs it in t itself.
func rows(t *testing.T, schedule, suite, prefix string) {
	t.Helper()
	var sel []Check
	for _, c := range Table() {
		if rest, ok := strings.CutPrefix(c.Name, prefix); ok && c.Suite == suite {
			c.Name = rest
			sel = append(sel, c)
		}
	}
	if len(sel) == 0 {
		t.Fatalf("no %s check is named %s…", suite, prefix)
	}
	nest(t, schedule, sel)
}

func nest(t *testing.T, schedule string, sel []Check) {
	seen := map[string]bool{}
	for _, c := range sel {
		if c.Name == "" {
			check(t, schedule, c)
			continue
		}
		head, _, deeper := strings.Cut(c.Name, "/")
		if seen[head] {
			continue
		}
		seen[head] = true
		if !deeper {
			t.Run(head, func(t *testing.T) { check(t, schedule, c) })
			continue
		}
		var sub []Check
		for _, d := range sel {
			if rest, ok := strings.CutPrefix(d.Name, head+"/"); ok {
				d.Name = rest
				sub = append(sub, d)
			}
		}
		t.Run(head, func(t *testing.T) { nest(t, schedule, sub) })
	}
}

func check(t *testing.T, schedule string, c Check) {
	if c.Sockets && testing.Short() {
		t.Skip("opens loopback sockets: not short")
	}
	o, err := c.Run(schedule)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(o.Evidence)
}

// TestTreeSchedule replays the crash/restart and hot-replacement suites with
// every collective routed through the binomial tree schedule: the same
// bit-identical differentials must hold when reductions take multi-hop
// routes, checkpoint cuts cross a tree barrier, and a replacement splices
// into tree-shaped retained send histories.
func TestTreeSchedule(t *testing.T) {
	rows(t, "tree", "crash", "")
	rows(t, "tree", "recovery", "")
}

// TestTableShape checks the table itself: names unique, no suite empty, and
// the grids complete — every scenario in every in-process check kind, every
// serving scenario at 1, 2 and 4 in-process ranks and on 2- and 4-rank TCP
// gangs.
func TestTableShape(t *testing.T) {
	table := Table()
	names := map[string]bool{}
	perSuite := map[string]int{}
	for _, c := range table {
		if names[c.Suite+" "+c.Name] {
			t.Errorf("duplicate check %s %s", c.Suite, c.Name)
		}
		names[c.Suite+" "+c.Name] = true
		perSuite[c.Suite]++
	}
	for _, s := range Suites {
		if perSuite[s] == 0 {
			t.Errorf("suite %s has no checks", s)
		}
	}
	if len(perSuite) != len(Suites) {
		t.Errorf("table holds suites %v, Suites lists %v", perSuite, Suites)
	}
	inProcess := []string{
		"crash resume/%s/ranks=2", "crash elastic/%s/4-to-3", "crash repeated/%s", "crash stuck/ranks=4/%s",
		"integrity state/%s/ranks=4", "integrity ckpt-rot/%s/ranks=4",
		"overload mem-soft/%s/ranks=2", "overload mem-hard/%s", "overload disk-full/%s",
	}
	for _, sc := range Scenarios() {
		for _, kind := range inProcess {
			if name := fmt.Sprintf(kind, sc.Name); !names[name] {
				t.Errorf("scenario %s is missing from %q", sc.Name, name)
			}
		}
	}
	for _, sc := range ServingScenarios() {
		for _, size := range []string{"ranks=1", "ranks=2", "ranks=4", "tcp-ranks=2", "tcp-ranks=4"} {
			if name := fmt.Sprintf("serving %s/%s", sc.Name, size); !names[name] {
				t.Errorf("no check %q", name)
			}
		}
	}
}

// TestRunReportsFailures drives the CLI driver over a fake table: the
// failing check must print its FAIL line and count, the passing one its
// evidence, an unselected suite must not run, and an unknown suite name must
// be an error that lists the valid ones.
func TestRunReportsFailures(t *testing.T) {
	var gotSchedule string
	netRuns := 0
	fake := []Check{
		{Suite: "crash", Name: "fine", Run: func(s string) (*Outcome, error) {
			gotSchedule = s
			return &Outcome{Evidence: "the fault bit"}, nil
		}},
		{Suite: "crash", Name: "broken", Run: func(string) (*Outcome, error) {
			return nil, errors.New("relations diverge")
		}},
		{Suite: "net", Name: "elsewhere", Run: func(string) (*Outcome, error) {
			netRuns++
			return &Outcome{}, nil
		}},
	}
	var out bytes.Buffer
	failed, err := Run(&out, fake, "crash,serving", "tree")
	if err != nil || failed != 1 {
		t.Fatalf("Run = %d failed, err %v; want 1 failed, no error", failed, err)
	}
	if netRuns != 0 {
		t.Error("ran a check of a suite that was not selected")
	}
	if gotSchedule != "tree" {
		t.Errorf("check ran under schedule %q, want tree", gotSchedule)
	}
	for _, want := range []string{"FAIL crash     broken: relations diverge", "ok   crash     fine: the fault bit", "1 of 2 chaos checks failed"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	if failed, err := Run(&out, fake, "all", ""); err != nil || failed != 1 || netRuns != 1 {
		t.Errorf("Run(all) = %d failed, err %v, %d net runs; want 1 failed, no error, every suite run", failed, err, netRuns)
	}
	_, err = Run(&out, fake, "crash,chaos-net", "")
	if err == nil || !strings.Contains(err.Error(), `"chaos-net"`) || !strings.Contains(err.Error(), strings.Join(Suites, ", ")) {
		t.Errorf("unknown suite: err = %v, want one naming it and listing %v", err, Suites)
	}
}
