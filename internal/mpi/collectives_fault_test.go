package mpi

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Satellite coverage: every collective, at 2/4/8/16 ranks, under every
// collective schedule (flat star, topology-aware tree, ring), with
// point-to-point traffic riding alongside under deterministic delay and drop
// plans. Delays must be invisible to the results; drops must surface as
// structured failures, never hangs or wrong answers.

// testSchedules are the concrete schedules every collective test sweeps.
var testSchedules = []ScheduleKind{ScheduleFlat, ScheduleTree, ScheduleRing}

// splitTopology fakes a two-host placement (first half / second half) so the
// tree tests exercise the two-level topology-aware shape, not just the plain
// binomial.
func splitTopology(n int) *Topology {
	hosts := make([]string, n)
	for i := range hosts {
		if i < n/2 {
			hosts[i] = "hostA"
		} else {
			hosts[i] = "hostB"
		}
	}
	return TopologyFromHosts(hosts)
}

// allPairDelays builds a Delay spec for every ordered rank pair.
func allPairDelays(n int, frac float64, max time.Duration) []Delay {
	var ds []Delay
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				ds = append(ds, Delay{From: i, To: j, Frac: frac, Max: max})
			}
		}
	}
	return ds
}

// collectiveSuite exercises all seven collectives plus a delayed p2p ring
// and asserts every result against its closed form.
func collectiveSuite(t *testing.T, c *Comm) error {
	n, r := c.Size(), c.Rank()
	c.SetEpoch(0)

	if got, want := c.Allreduce(uint64(r+1), OpSum), uint64(n*(n+1)/2); got != want {
		return fmt.Errorf("rank %d: allreduce sum = %d, want %d", r, got, want)
	}
	if got, want := c.Allreduce(uint64(r), OpMax), uint64(n-1); got != want {
		return fmt.Errorf("rank %d: allreduce max = %d, want %d", r, got, want)
	}
	ag := c.Allgather(uint64(r * r))
	for i, v := range ag {
		if v != uint64(i*i) {
			return fmt.Errorf("rank %d: allgather[%d] = %d, want %d", r, i, v, i*i)
		}
	}
	root := n / 2
	var bpay []Word
	if r == root {
		bpay = []Word{7, 8, 9}
	}
	b := c.Bcast(root, bpay)
	if len(b) != 3 || b[0] != 7 || b[2] != 9 {
		return fmt.Errorf("rank %d: bcast got %v", r, b)
	}
	send := make([][]Word, n)
	for j := range send {
		send[j] = []Word{Word(r*100 + j)}
	}
	recv := c.Alltoallv(send)
	for i := range recv {
		if len(recv[i]) != 1 || recv[i][0] != Word(i*100+r) {
			return fmt.Errorf("rank %d: alltoallv from %d got %v", r, i, recv[i])
		}
	}
	mine := make([]Word, r+1) // ragged contribution
	for i := range mine {
		mine[i] = Word(r*10 + i)
	}
	agv := c.AllgatherV(mine)
	for i := range agv {
		if len(agv[i]) != i+1 {
			return fmt.Errorf("rank %d: allgatherv[%d] has %d words, want %d", r, i, len(agv[i]), i+1)
		}
		for k, v := range agv[i] {
			if v != Word(i*10+k) {
				return fmt.Errorf("rank %d: allgatherv[%d][%d] = %d", r, i, k, v)
			}
		}
	}
	g := c.Gather(0, uint64(r+5))
	if r == 0 {
		for i, v := range g {
			if v != uint64(i+5) {
				return fmt.Errorf("rank 0: gather[%d] = %d, want %d", i, v, i+5)
			}
		}
	}
	// A p2p ring between collectives, its messages subject to the delays.
	next, prev := (r+1)%n, (r+n-1)%n
	c.Send(next, 9, []Word{Word(r)})
	words, _ := c.Recv(prev, 9)
	if len(words) != 1 || words[0] != Word(prev) {
		return fmt.Errorf("rank %d: ring recv got %v, want [%d]", r, words, prev)
	}
	c.Barrier()
	return nil
}

func TestCollectiveSuiteUnderDelays(t *testing.T) {
	// 3 and 6 ride along: non-power-of-two sizes are where tree shapes break.
	for _, n := range []int{2, 3, 4, 6, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				if sched != ScheduleFlat {
					w.SetTopology(splitTopology(n))
				}
				w.SetFaultPlan(&FaultPlan{
					Seed:   31,
					Delays: allPairDelays(n, 0.8, 2*time.Millisecond),
				})
				if err := w.Run(func(c *Comm) error { return collectiveSuite(t, c) }); err != nil {
					t.Fatal(err)
				}
				// Every schedule, flat included, moves its collectives as
				// messages: rank 0 must have received more than the suite's
				// one 8-byte p2p ring word.
				var recvd int64
				for _, b := range w.Stats().PerRank()[0].PeerBytesRecv {
					recvd += b
				}
				if recvd <= WordBytes {
					t.Errorf("rank 0 received %d bytes; the collectives did not cross the message path", recvd)
				}
			})
		}
	}
}

func TestCollectiveSuiteUnderDropsFailsStructurally(t *testing.T) {
	// Drops cannot silently skew a result: the blocked receive times out
	// into an ErrRankFailed every rank observes.
	for _, n := range []int{2, 4, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				w.SetFaultPlan(&FaultPlan{
					Seed:  32,
					Drops: []Drop{{From: 0, To: n - 1, Frac: 1}},
				})
				w.SetWatchdog(100 * time.Millisecond)
				err := w.Run(func(c *Comm) error {
					c.Allreduce(1, OpSum) // collectives around the doomed exchange
					if c.Rank() == 0 {
						c.Send(n-1, 4, []Word{1})
					}
					if c.Rank() == n-1 {
						c.Recv(0, 4)
						t.Error("dropped message was received")
					}
					c.Barrier()
					return nil
				})
				rf, ok := AsRankFailure(err)
				if !ok {
					t.Fatalf("err = %v, want structured rank failure", err)
				}
				if !errors.Is(rf, ErrRecvTimeout) && !errors.Is(rf, ErrWatchdogTimeout) {
					t.Errorf("failure %v names neither the recv timeout nor the stalled collective", rf)
				}
			})
		}
	}
}

// fuzzWords derives a deterministic ragged payload for the (round, src,
// dst) cell: length in [0, 17), contents hashed from the coordinates.
func fuzzWords(seed int64, round, src, dst int) []Word {
	n := int(faultHash(seed, 0x77, round, src, dst) % 17)
	ws := make([]Word, n)
	for i := range ws {
		ws[i] = Word(faultHash(seed, 0x78, round*1000+i, src, dst))
	}
	return ws
}

func TestAlltoallvRoundTripFuzz(t *testing.T) {
	// Property: alltoallv is a matrix transpose. Sending the received
	// matrix back must reproduce the original send matrix exactly — for
	// ragged, hash-random per-peer payload sizes (empty rows included),
	// across several rounds, at 2/4/8/16 ranks under every schedule, with
	// message delays active.
	const rounds = 6
	for _, n := range []int{2, 4, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				if sched != ScheduleFlat {
					w.SetTopology(splitTopology(n))
				}
				w.SetFaultPlan(&FaultPlan{
					Seed:   33,
					Delays: allPairDelays(n, 0.5, time.Millisecond),
				})
				err := w.Run(func(c *Comm) error {
					for round := 0; round < rounds; round++ {
						c.SetEpoch(round)
						send := make([][]Word, n)
						for dst := range send {
							send[dst] = fuzzWords(33, round, c.Rank(), dst)
						}
						recv := c.Alltoallv(send)
						for src := range recv {
							want := fuzzWords(33, round, src, c.Rank())
							if len(recv[src]) != len(want) {
								return fmt.Errorf("round %d rank %d: from %d got %d words, want %d",
									round, c.Rank(), src, len(recv[src]), len(want))
							}
							for i := range want {
								if recv[src][i] != want[i] {
									return fmt.Errorf("round %d rank %d: word %d from %d = %#x, want %#x",
										round, c.Rank(), i, src, recv[src][i], want[i])
								}
							}
						}
						// The way back: return everything to its sender.
						back := c.Alltoallv(recv)
						for dst := range back {
							orig := fuzzWords(33, round, c.Rank(), dst)
							if len(back[dst]) != len(orig) {
								return fmt.Errorf("round %d rank %d: round-trip to %d lost words: %d != %d",
									round, c.Rank(), dst, len(back[dst]), len(orig))
							}
							for i := range orig {
								if back[dst][i] != orig[i] {
									return fmt.Errorf("round %d rank %d: round-trip word %d to %d corrupted",
										round, c.Rank(), i, dst)
								}
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func TestAllreduceVecFuzz(t *testing.T) {
	// Property: AllreduceVec over OpSum/OpMax matches the closed form every
	// rank can compute locally (contributions are hashed from (round, rank,
	// index), so every rank knows everyone's input). Vector lengths straddle
	// the ring crossover so the ring schedule's reduce-scatter/allgather path
	// runs for real, including the ragged final block.
	lengths := []int{1, 7, ringMinWords, ringMinWords + 13}
	for _, n := range []int{2, 4, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				if sched != ScheduleFlat {
					w.SetTopology(splitTopology(n))
				}
				w.SetFaultPlan(&FaultPlan{
					Seed:   34,
					Delays: allPairDelays(n, 0.4, time.Millisecond),
				})
				err := w.Run(func(c *Comm) error {
					for round, words := range lengths {
						c.SetEpoch(round)
						send := make([]Word, words)
						for i := range send {
							send[i] = faultHash(34, 0x7a, round*100000+i, c.Rank(), 0) >> 8
						}
						recv := make([]Word, words)
						c.AllreduceVec(send, recv, OpSum)
						for i := range recv {
							var want Word
							for r := 0; r < n; r++ {
								want += faultHash(34, 0x7a, round*100000+i, r, 0) >> 8
							}
							if recv[i] != want {
								return fmt.Errorf("round %d rank %d: sum[%d] = %#x, want %#x",
									round, c.Rank(), i, recv[i], want)
							}
						}
						c.AllreduceVec(send, recv, OpMax)
						for i := range recv {
							var want Word
							for r := 0; r < n; r++ {
								if v := faultHash(34, 0x7a, round*100000+i, r, 0) >> 8; v > want {
									want = v
								}
							}
							if recv[i] != want {
								return fmt.Errorf("round %d rank %d: max[%d] = %#x, want %#x",
									round, c.Rank(), i, recv[i], want)
							}
						}
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
