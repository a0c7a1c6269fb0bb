package chaos

import (
	"fmt"
	"io"
	"strings"
)

// Check is one row of the harness's one table: a differential bound to its
// scenario, rank count and fault, runnable under any collective schedule.
// Run returns the evidence that the fault bit and was repaired, or an error
// carrying whichever assertion failed — bit-identity (with both fingerprint
// sets), the structured failure, the metered repair route. Both drivers —
// the package's tests and `paralagg -chaos=…` — are loops over Table.
type Check struct {
	Suite string
	// Name is unique within the table: kind/scenario/size, slash-separated
	// so the test driver can nest subtests along it.
	Name string
	// Sockets marks checks that open loopback sockets (skipped by
	// `go test -short`).
	Sockets bool
	Run     func(schedule string) (*Outcome, error)
}

// Suites lists the suite names in table order. crash: mid-fixpoint crashes
// resumed by hand, by the supervisor at the same and smaller world sizes,
// twice in a row, and hangs converted by the watchdog. net: wire faults,
// partitions and killed processes over real TCP gangs. integrity: silent
// bit flips in relation state and checkpoint files. overload: slow
// consumers, memory budgets, full checkpoint devices. recovery: hot rank
// replacement against the full-restart control arm. serving: streamed
// insert/delete batches against from-scratch recomputation.
var Suites = []string{"crash", "net", "integrity", "overload", "recovery", "serving"}

// Table builds every check. A suite's grid is the union of what the six CLI
// runners and the package's tests each used to run on their own.
func Table() []Check {
	var t []Check
	add := func(suite, name string, sockets bool, run func(string) (*Outcome, error)) {
		t = append(t, Check{Suite: suite, Name: name, Sockets: sockets, Run: run})
	}
	scs := Scenarios()
	sssp, skew := scs[0], scs[3]
	// each adds one row per scenario and rank count.
	each := func(suite, kind string, sockets bool, rankCounts []int, run func(sc Scenario, s string, ranks int) (*Outcome, error)) {
		for _, sc := range scs {
			for _, ranks := range rankCounts {
				name := kind + "/" + sc.Name
				if len(rankCounts) > 1 {
					name = fmt.Sprintf("%s/ranks=%d", name, ranks)
				}
				add(suite, name, sockets, func(s string) (*Outcome, error) { return run(sc, s, ranks) })
			}
		}
	}

	each("crash", "resume", false, []int{2, 4}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return Differential(sc, s, ranks, 2, 3)
	})
	// Supervised elastic recovery: same size, one rank down, half size.
	for _, sc := range scs {
		for _, restart := range []int{4, 3, 2} {
			add("crash", fmt.Sprintf("elastic/%s/4-to-%d", sc.Name, restart), false, func(s string) (*Outcome, error) {
				return Elastic(sc, s, 4, 2, 3, restart)
			})
		}
	}
	each("crash", "repeated", false, []int{4}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return Repeated(sc, s, ranks, 2)
	})
	add("crash", "stuck/ranks=2/sssp", false, func(s string) (*Outcome, error) { return stuck(sssp, s, 2) })
	for _, sc := range scs {
		add("crash", "stuck/ranks=4/"+sc.Name, false, func(s string) (*Outcome, error) { return stuck(sc, s, 4) })
	}

	repairable := func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return TCPDifferential(sc, s, ranks, RepairableFaults(ranks))
	}
	each("net", "repairable", true, []int{2, 4}, repairable)
	add("net", "repairable/sssp/ranks=3", true, func(s string) (*Outcome, error) { return repairable(sssp, s, 3) })
	each("net", "partition", true, []int{3}, TCPPartition)
	each("net", "kill", true, []int{3}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return TCPFullRestart(sc, s, ranks, 2, 3)
	})

	each("integrity", "state", false, []int{2, 4}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return CorruptionDifferential(sc, s, ranks, 2, 3)
	})
	each("integrity", "ckpt-rot", false, []int{2, 4}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return CheckpointCorruptionDifferential(sc, s, ranks, 2, 5)
	})
	each("integrity", "tcp-state", true, []int{2}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return TCPCorruptionDetection(sc, s, ranks, 3)
	})

	each("overload", "slow-consumer", true, []int{3}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return TCPSlowConsumer(sc, s, ranks, 8)
	})
	each("overload", "mem-soft", false, []int{2, 4}, MemPressureSoft)
	each("overload", "mem-hard", false, []int{4}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return MemPressureHard(sc, s, ranks, 2)
	})
	each("overload", "disk-full", false, []int{4}, func(sc Scenario, s string, ranks int) (*Outcome, error) {
		return DiskFullDegradation(sc, s, ranks, 2)
	})

	// Every recovery row is the same incident — highest rank crashed
	// entering iteration 5's tuple exchange, checkpoints every 2 — so the
	// two repair strategies compete on one crash. sssp-skew runs Subs=4:
	// the replacement's restore must respect sub-bucket placement.
	recovery := func(name string, sc Scenario, ranks int, run func(Scenario, string, int, int, int) (*Outcome, error)) {
		add("recovery", fmt.Sprintf("%s/%s/ranks=%d", name, sc.Name, ranks), true, func(s string) (*Outcome, error) {
			return run(sc, s, ranks, 2, 5)
		})
	}
	recovery("hot-replace", sssp, 4, TCPHotReplace)
	recovery("hot-replace", sssp, 8, TCPHotReplace)
	recovery("hot-replace", skew, 4, TCPHotReplace)
	recovery("full-restart", sssp, 4, TCPFullRestart)
	recovery("mttr", sssp, 4, hotReplaceBeatsFullRestart)
	recovery("cross-schedule", sssp, 4, crossSchedule)

	for _, sc := range ServingScenarios() {
		for _, ranks := range []int{1, 2, 4} {
			add("serving", fmt.Sprintf("%s/ranks=%d", sc.Name, ranks), false, func(s string) (*Outcome, error) {
				return ServingDifferential(sc, s, ranks, false)
			})
		}
		for _, ranks := range []int{2, 4} {
			add("serving", fmt.Sprintf("%s/tcp-ranks=%d", sc.Name, ranks), true, func(s string) (*Outcome, error) {
				return ServingDifferential(sc, s, ranks, true)
			})
		}
	}
	return t
}

// Run is the CLI driver: it runs the checks of the named suites (a
// comma-separated subset of Suites, or "all") from table under schedule,
// printing one ok/FAIL line per check to w, and returns how many failed. An
// unknown suite name is an error naming the valid ones.
func Run(w io.Writer, table []Check, suites, schedule string) (failed int, err error) {
	want := map[string]bool{}
	for _, name := range strings.Split(suites, ",") {
		known := name == "all"
		for _, s := range Suites {
			if name == s || name == "all" {
				want[s], known = true, true
			}
		}
		if !known {
			return 0, fmt.Errorf("unknown chaos suite %q (valid: all, %s)", name, strings.Join(Suites, ", "))
		}
	}
	ran := 0
	for _, c := range table {
		if !want[c.Suite] {
			continue
		}
		ran++
		o, err := c.Run(schedule)
		if err != nil {
			fmt.Fprintf(w, "FAIL %-9s %s: %v\n", c.Suite, c.Name, err)
			failed++
			continue
		}
		fmt.Fprintf(w, "ok   %-9s %s: %s\n", c.Suite, c.Name, o.Evidence)
	}
	if failed > 0 {
		fmt.Fprintf(w, "\n%d of %d chaos checks failed\n", failed, ran)
	} else {
		fmt.Fprintf(w, "\nall %d chaos checks passed\n", ran)
	}
	return failed, nil
}
