package main

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"time"

	"paralagg/internal/mpi"
	"paralagg/internal/supervisor"
)

// The single-machine gang launcher behind -spawn N: allocate one loopback
// port per rank, re-exec this binary N times as -transport=tcp children
// (one rank each), and wait. Every user-set flag is forwarded verbatim, so
//
//	paralagg -query sssp -transport=tcp -spawn 4 -subs 8
//
// runs the same query a 4-goroutine simulated world would, but as four OS
// processes exchanging CRC-framed messages over real sockets.
//
// Children exit 3 when they die of a structured rank failure (a crashed or
// unreachable peer). Under -supervise the launcher then respawns the whole
// gang with -resume through the same supervisor.Run as paralagg.Supervise,
// restoring the latest checkpoints from -checkpoint-dir after -recovery-
// backoff. Every child of a dead gang exits 3, so the launcher cannot tell
// which rank was lost, and -degrade is refused.

// launcherFlags are the flags that steer the launcher or name this
// process's own endpoint; everything else is forwarded to the children.
var launcherFlags = map[string]bool{
	"spawn": true, "transport": true, "rank": true, "peers": true,
	"quiet": true, "ranks": true, "resume": true,
	"supervise": true, "max-restarts": true, "degrade": true, "recovery-backoff": true,
}

// forwardedArgs rebuilds the child argument list from every flag the user
// set explicitly, minus the launcher's own.
func forwardedArgs() []string {
	var fwd []string
	flag.Visit(func(f *flag.Flag) {
		if !launcherFlags[f.Name] {
			fwd = append(fwd, "-"+f.Name+"="+f.Value.String())
		}
	})
	return fwd
}

// allocPorts reserves n distinct loopback ports by binding and immediately
// releasing them. The window between release and the child's bind is a
// race in principle; for a single-machine launcher it is harmless in
// practice, and a clash surfaces as a clean child bind error.
func allocPorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs, nil
}

// exitRankFailed is the exit code of a child that died of a structured
// rank failure.
const exitRankFailed = 3

// spawnGang runs the gang under supervisor.Run: one attempt, plus up to
// restarts respawns after rank failures, each adding -resume so the
// restarted gang restores the latest checkpoints, and each after the
// supervisor's backoff. Returns the exit code for the launcher process: 0,
// or the worst child exit code of the last attempt.
func spawnGang(n, restarts int, backoff time.Duration) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "spawn: %v\n", err)
		return 1
	}
	cfg := supervisor.Config{MaxRestarts: restarts, Backoff: backoff}
	if restarts >= 0 {
		cfg.Logf = func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) }
	}
	fwd := forwardedArgs()
	_, err = supervisor.Run(n, cfg, func(attempt, ranks int, resume bool) error {
		codes, err := runGang(self, fwd, attempt, ranks, resume)
		if err != nil {
			return err
		}
		return gangErr(codes)
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "spawn: %v\n", err)
	}
	return launcherExit(err)
}

// runGang starts one child per rank on fresh loopback ports and waits for
// all of them, returning each child's exit code (-1 for one a signal
// killed). An error means the gang could not be started.
func runGang(self string, fwd []string, attempt, n int, resume bool) ([]int, error) {
	addrs, err := allocPorts(n)
	if err != nil {
		return nil, fmt.Errorf("allocating ports: %w", err)
	}
	peerList := strings.Join(addrs, ",")
	fmt.Fprintf(os.Stderr, "spawn: attempt %d: %d ranks on %s\n", attempt, n, peerList)

	cmds := make([]*exec.Cmd, n)
	for r := 0; r < n; r++ {
		args := append([]string(nil), fwd...)
		args = append(args, "-transport=tcp", "-rank="+strconv.Itoa(r), "-peers="+peerList)
		if r > 0 {
			args = append(args, "-quiet")
		}
		if resume {
			args = append(args, "-resume")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("starting rank %d: %w", r, err)
		}
		cmds[r] = cmd
	}

	codes := make([]int, n)
	for r, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			codes[r] = 1
			if ee, ok := err.(*exec.ExitError); ok {
				codes[r] = ee.ExitCode()
			}
			fmt.Fprintf(os.Stderr, "spawn: rank %d exited %d\n", r, codes[r])
		}
	}
	return codes, nil
}

// childExit is a gang attempt that ended in a child exit restarting cannot
// fix; its value is the worst child exit code.
type childExit int

func (c childExit) Error() string { return fmt.Sprintf("a rank process exited %d", int(c)) }

// gangErr maps one gang attempt's child exit codes to the error
// supervisor.Run decides on. A child that exits 3 died of a structured rank
// failure (a crashed or unreachable peer), and so did one a signal killed:
// each becomes an mpi.ErrRankFailed, which the supervisor restarts from.
// Any other non-zero exit is terminal, as a childExit carrying the worst
// exit code: restarting would replay it.
func gangErr(codes []int) error {
	var failed []error
	worst, terminal := 0, false
	for r, code := range codes {
		switch code {
		case 0:
		case exitRankFailed, -1:
			cause := fmt.Errorf("rank process exited %d", code)
			if code == -1 {
				cause = errors.New("rank process killed by a signal")
			}
			failed = append(failed, &mpi.ErrRankFailed{Rank: r, Op: "spawn", Cause: cause})
		default:
			terminal = true
		}
		worst = max(worst, code)
	}
	if terminal {
		return childExit(worst)
	}
	return errors.Join(failed...)
}

// launcherExit is the launcher's exit code for supervisor.Run's outcome:
// 0 on success, the worst child exit code of a terminal attempt, 3 when the
// restart budget ran out on rank failures, and 1 when a gang could not be
// started.
func launcherExit(err error) int {
	var ce childExit
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ce):
		return int(ce)
	case len(mpi.RankFailures(err)) > 0:
		return exitRankFailed
	}
	return 1
}
