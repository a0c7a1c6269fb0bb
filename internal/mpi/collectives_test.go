package mpi

import (
	"fmt"
	"testing"
)

// Every collective, at 2 to 16 ranks, under both collective schedules (flat
// star, topology-aware tree), against closed forms and round-trip
// properties.

// testSchedules are the concrete schedules every collective test sweeps.
var testSchedules = []ScheduleKind{ScheduleFlat, ScheduleTree}

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

// collectiveSuite exercises all five collectives and asserts every result
// against its closed form.
func collectiveSuite(c *Comm) error {
	n, r := c.Size(), c.Rank()
	c.SetEpoch(0)

	if got, want := c.Allreduce(uint64(r+1), OpSum), uint64(n*(n+1)/2); got != want {
		return fmt.Errorf("rank %d: allreduce sum = %d, want %d", r, got, want)
	}
	if got, want := c.Allreduce(uint64(r), OpMax), uint64(n-1); got != want {
		return fmt.Errorf("rank %d: allreduce max = %d, want %d", r, got, want)
	}
	vec := c.AllreduceVec([]Word{Word(r), 1}, make([]Word, 2), OpSum)
	if want := Word(n * (n - 1) / 2); vec[0] != want || vec[1] != Word(n) {
		return fmt.Errorf("rank %d: allreducevec sum = %v, want [%d %d]", r, vec, want, n)
	}
	ag := c.Allgather(uint64(r * r))
	for i, v := range ag {
		if v != uint64(i*i) {
			return fmt.Errorf("rank %d: allgather[%d] = %d, want %d", r, i, v, i*i)
		}
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
	c.Barrier()
	return nil
}

func TestCollectiveSuite(t *testing.T) {
	// 3 and 6 ride along: non-power-of-two sizes are where tree shapes break.
	for _, n := range []int{2, 3, 4, 6, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				if sched != ScheduleFlat {
					w.SetTopology(splitTopology(n))
				}
				if err := w.Run(collectiveSuite); err != nil {
					t.Fatal(err)
				}
				// Every schedule, flat included, moves its collectives as
				// messages: rank 0 must have received some.
				var recvd int64
				for _, b := range w.Stats().PerRank()[0].PeerBytesRecv {
					recvd += b
				}
				if recvd == 0 {
					t.Errorf("rank 0 received no bytes; the collectives did not cross the message path")
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
	// across several rounds, at 2/4/8/16 ranks under every schedule.
	const rounds = 6
	for _, n := range []int{2, 4, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				if sched != ScheduleFlat {
					w.SetTopology(splitTopology(n))
				}
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
	// index), so every rank knows everyone's input). Vector lengths run from
	// a scalar to multi-KiB payloads.
	lengths := []int{1, 7, 1024, 1024 + 13}
	for _, n := range []int{2, 4, 8, 16} {
		for _, sched := range testSchedules {
			t.Run(fmt.Sprintf("ranks=%d/%s", n, sched), func(t *testing.T) {
				w := NewWorld(n)
				w.SetSchedule(sched)
				if sched != ScheduleFlat {
					w.SetTopology(splitTopology(n))
				}
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
