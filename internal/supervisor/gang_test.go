package supervisor

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// chanMember is a Member whose exit the test scripts through a channel.
type chanMember struct {
	done   chan error
	killed atomic.Bool
}

func newChanMember() *chanMember { return &chanMember{done: make(chan error, 1)} }

func (m *chanMember) Wait() error { return <-m.done }
func (m *chanMember) Kill() {
	m.killed.Store(true)
	select {
	case m.done <- errors.New("killed"):
	default:
	}
}

func TestRunGangCleanExit(t *testing.T) {
	rep, err := RunGang(GangConfig{Ranks: 3, Spawn: func(rank, epoch int) (Member, error) {
		m := newChanMember()
		m.done <- nil
		return m, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements != 0 || len(rep.Replaced) != 0 {
		t.Errorf("clean gang reported replacements: %+v", rep)
	}
}

func TestRunGangReplacesDeadMemberAtNextEpoch(t *testing.T) {
	var sawEpoch atomic.Int64
	sawEpoch.Store(-1)
	rep, err := RunGang(GangConfig{Ranks: 3, Spawn: func(rank, epoch int) (Member, error) {
		m := newChanMember()
		if rank == 1 && epoch == 0 {
			m.done <- errors.New("rank 1 crashed")
		} else {
			if rank == 1 {
				sawEpoch.Store(int64(epoch))
			}
			m.done <- nil
		}
		return m, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replacements != 1 || len(rep.Replaced) != 1 || rep.Replaced[0] != 1 {
		t.Errorf("report: %+v, want exactly rank 1 replaced once", rep)
	}
	if sawEpoch.Load() != 1 {
		t.Errorf("replacement spawned at epoch %d, want 1", sawEpoch.Load())
	}
}

// TestRunGangSpawnFailureKillsSurvivorsAndFallsBack: a replacement spawn
// error is terminal for the gang — survivors are killed, the error wraps
// ErrReplaceFailed — and the caller's full-restart supervisor can take over.
func TestRunGangSpawnFailureKillsSurvivorsAndFallsBack(t *testing.T) {
	survivors := make([]*chanMember, 0, 2)
	var notified []string
	_, err := RunGang(GangConfig{
		Ranks: 3,
		Spawn: func(rank, epoch int) (Member, error) {
			if epoch > 0 {
				return nil, errors.New("scheduler rejected the respawn")
			}
			m := newChanMember()
			if rank == 2 {
				m.done <- errors.New("rank 2 crashed")
			} else {
				survivors = append(survivors, m)
			}
			return m, nil
		},
		Notify: func(action string, rank, epoch int, cause error) {
			notified = append(notified, fmt.Sprintf("%s:%d@%d", action, rank, epoch))
		},
	})
	if !errors.Is(err, ErrReplaceFailed) {
		t.Fatalf("err = %v, want ErrReplaceFailed", err)
	}
	for i, m := range survivors {
		if !m.killed.Load() {
			t.Errorf("survivor %d not killed during teardown", i)
		}
	}
	wantSeq := []string{"replace:2@1", "replace-failed:2@1"}
	if len(notified) != 2 || notified[0] != wantSeq[0] || notified[1] != wantSeq[1] {
		t.Errorf("notifications %v, want %v", notified, wantSeq)
	}

	// The composition the launcher relies on: ErrReplaceFailed matched, the
	// whole-world restart path runs and succeeds.
	attempts := 0
	if errors.Is(err, ErrReplaceFailed) {
		_, rerr := Run(3, Config{Sleep: func(d time.Duration) {}}, func(attempt, ranks int, resume bool) error {
			attempts++
			return nil
		})
		if rerr != nil {
			t.Fatalf("full-restart fallback failed: %v", rerr)
		}
	}
	if attempts != 1 {
		t.Errorf("fallback ran %d attempts, want 1", attempts)
	}
}

func TestRunGangBudgetExhaustionIsTerminal(t *testing.T) {
	var spawned atomic.Int64
	_, err := RunGang(GangConfig{
		Ranks: 2,
		Spawn: func(rank, epoch int) (Member, error) {
			spawned.Add(1)
			m := newChanMember()
			if rank == 0 {
				m.done <- errors.New("rank 0 keeps dying")
			}
			return m, nil
		},
	})
	if !errors.Is(err, ErrReplaceFailed) {
		t.Fatalf("err = %v, want ErrReplaceFailed", err)
	}
	// Initial gang (2) + three replacements within budget; the fourth death
	// is terminal without another spawn.
	if spawned.Load() != 5 {
		t.Errorf("%d spawns, want 5 (2 initial + 3 replacements)", spawned.Load())
	}
}
