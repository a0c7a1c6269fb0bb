package mpi

import (
	"fmt"
	"runtime"
	"testing"
)

// Received rows are recycled: a row handed out by one Alltoallv goes back to
// the rank's mailbox at its next call and carries a later message. That is
// only sound if no row is ever lent while its owner can still read it. Here
// every lane carries a pattern unique to its round and (src, dst) pair, lane
// lengths wander across the free list's size classes (which the reductions
// in between share), rank 0 never pauses while the last rank dawdles before
// reading — so the fast ranks' next-round sends, drawn from the slow rank's
// free list, land while it is still verifying the previous round's rows —
// and every row is checked word for word before the rank's next Alltoallv.
// Run under -race -count=10 it doubles as the data-race check on the lists.
func TestRecycledRowsSurviveRacingRanks(t *testing.T) {
	const ranks, rounds = 4, 500
	lane := func(round, src, dst int) []Word {
		row := make([]Word, (round*7+src*3+dst)%41)
		for i := range row {
			row[i] = Word(round)<<32 | Word(src)<<24 | Word(dst)<<16 | Word(i)
		}
		return row
	}
	for _, sched := range testSchedules {
		t.Run(sched.String(), func(t *testing.T) {
			w := NewWorld(ranks)
			w.SetSchedule(sched)
			err := w.Run(func(c *Comm) error {
				me := c.Rank()
				send := make([][]Word, ranks)
				vec := make([]Word, 6)
				for round := 0; round < rounds; round++ {
					for dst := range send {
						send[dst] = lane(round, me, dst)
					}
					recv := c.Alltoallv(send)
					if me == ranks-1 && round%3 == 0 {
						runtime.Gosched() // let the others' next sends arrive first
					}
					for src, got := range recv {
						want := lane(round, src, me)
						if len(got) != len(want) {
							return fmt.Errorf("round %d, %d->%d: %d words, want %d", round, src, me, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								return fmt.Errorf("round %d, %d->%d, word %d: %#x, want %#x — a recycled row was overwritten while held",
									round, src, me, i, got[i], want[i])
							}
						}
					}
					if sum := c.Allreduce(Word(round), OpSum); sum != Word(round*ranks) {
						return fmt.Errorf("round %d: allreduce %d", round, sum)
					}
					for i := range vec {
						vec[i] = Word(round + i)
					}
					c.AllreduceVec(vec, vec, OpMax)
					for i := range vec {
						if vec[i] != Word(round+i) {
							return fmt.Errorf("round %d: allreducevec[%d] = %d", round, i, vec[i])
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
