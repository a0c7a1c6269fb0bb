package relation

import (
	"fmt"
	"math"
	"testing"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/obs"
	"paralagg/internal/tuple"
)

// TestSenderFoldIsExactAndShipsOneRecordPerKey materializes, on each of 2
// ranks, many candidates for a few keys — some improving a seeded value,
// some not, some for keys not seen before — written through a staged
// Candidates, so that full chunks fold as they fill and Advance folds the
// rest. Candidate counts sit on either side of the chunk size. The
// accumulator must hold the ⊔ of the seed and every candidate (for MSum,
// every candidate added exactly once), Δ exactly the keys whose value
// changed, and the routing exchange must carry one record per (key,
// destination), not one per candidate: its PhaseAllToAll sample, whose bytes
// are the rank's Comm.Meter across the exchange, counts them.
func TestSenderFoldIsExactAndShipsOneRecordPerKey(t *testing.T) {
	const ranks, keys = 2, 6
	key := func(k int) tuple.Tuple { return tuple.Tuple{tuple.Value(k % 2), tuple.Value(k)} }
	fbits := func(f float64) tuple.Value { return math.Float64bits(f) }
	cases := []struct {
		name string
		agg  lattice.Aggregator
		seed tuple.Value
		cand func(rank, i int) tuple.Value
	}{
		{"min", lattice.Min{}, 50, func(rank, i int) tuple.Value { return tuple.Value(40 + (i*7+rank*11)%30) }},
		// Small integers: every sum is exact whatever the grouping, so a
		// candidate folded twice or never shows.
		{"msum", lattice.MSum{}, fbits(50), func(rank, i int) tuple.Value { return fbits(float64(1 + (i*7+rank*11)%5)) }},
	}
	for _, subs := range []int{1, 4} {
		t.Run(fmt.Sprintf("subs=%d", subs), func(t *testing.T) {
			for _, tc := range cases {
				for _, perRank := range []int{stageChunk - 1, stageChunk, stageChunk + 1, 3*stageChunk + 5} {
					t.Run(fmt.Sprintf("%s/cands=%d", tc.name, perRank), func(t *testing.T) {
						runWorld(t, ranks, func(c *mpi.Comm) error {
							return checkSenderFold(c, tc.agg, subs, perRank, keys, key, tc.seed, tc.cand)
						})
					})
				}
			}
		})
	}
}

func checkSenderFold(c *mpi.Comm, agg lattice.Aggregator, subs, perRank, keys int,
	key func(int) tuple.Tuple, seedVal tuple.Value, cand func(rank, i int) tuple.Value) error {
	mc := metrics.NewCollector(c.Size())
	r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 1, Agg: agg}, c, mc, Config{Subs: subs})
	if err != nil {
		return err
	}
	// A canonical index, local to the accumulator, shows Δ.
	canon, err := r.AddIndex([]int{0, 1, 2}, 1)
	if err != nil {
		return err
	}
	// Rank 0 seeds keys 0..3 at seedVal; keys 4 and 5 start absent.
	seed := tuple.NewBuffer(3, 4)
	for k := 0; k < 4 && c.Rank() == 0; k++ {
		seed.Append(append(key(k), seedVal))
	}
	r.Materialize(0, seed, false)

	// want is the ⊔ of the seed and every rank's candidates; fold is this
	// rank's own fold, which decides where a key goes.
	join := func(m map[int]tuple.Value, k int, v tuple.Value) {
		if w, ok := m[k]; ok {
			v = agg.Join([]tuple.Value{w}, []tuple.Value{v})[0]
		}
		m[k] = v
	}
	want, fold := map[int]tuple.Value{}, map[int]tuple.Value{}
	for k := 0; k < 4; k++ {
		want[k] = seedVal
	}
	cands := NewCandidates(r)
	cands.Begin(true)
	for rk := 0; rk < c.Size(); rk++ {
		for i := 0; i < perRank; i++ {
			k, v := i%keys, cand(rk, i)
			join(want, k, v)
			if rk == c.Rank() {
				copy(cands.Slot(), append(key(k), v))
				join(fold, k, v)
			}
		}
	}
	if n := cands.Len(); n != (perRank-1)%stageChunk+1 {
		return fmt.Errorf("staged chunk holds %d candidates after %d, want %d", n, perRank, (perRank-1)%stageChunk+1)
	}
	changed := map[int]bool{}
	for k, v := range want {
		changed[k] = k >= 4 || agg.Compare([]tuple.Value{v}, []tuple.Value{seedVal}) != lattice.Equal
	}

	if got := r.Materialize(1, &cands.Buffer, true); got != uint64(countTrue(changed)) {
		return fmt.Errorf("changed count %d, want %d", got, countTrue(changed))
	}
	for k := 0; k < keys; k++ {
		var local uint64
		if v, ok := r.Lookup(key(k)); ok {
			local = v[0]
		}
		if got := c.Allreduce(local, mpi.OpMax); got != want[k] {
			return fmt.Errorf("key %d: accumulator %#x, want %#x", k, got, want[k])
		}
	}
	var bad error
	canon.Delta().Ascend(func(d tuple.Tuple) bool {
		if k := int(d[1]); !changed[k] || d[2] != want[k] {
			bad = fmt.Errorf("Δ holds %v; key %d changed=%v, value %#x", d, k, changed[k], want[k])
		}
		return bad == nil
	})
	if bad != nil {
		return bad
	}

	// One record per key this rank folded, each to one destination.
	records := make([]int, c.Size())
	for k, v := range fold {
		records[r.routeOf(append(key(k), v))]++
	}
	wantBytes := 0
	for dest, n := range records {
		if dest != c.Rank() {
			wantBytes += (routeHeader + n*r.Arity) * mpi.WordBytes
		}
	}
	s := mc.Row(c.Rank(), 1)[metrics.PhaseAllToAll]
	if s.Work != int64(len(fold)) || s.Bytes != int64(wantBytes) {
		return fmt.Errorf("routing exchange shipped %d records in %d bytes, want %d in %d",
			s.Work, s.Bytes, len(fold), wantBytes)
	}
	return r.CheckInvariants()
}

func countTrue(m map[int]bool) int {
	n := 0
	for _, v := range m {
		if v {
			n++
		}
	}
	return n
}

// TestFoldRatioFromPhaseEvents reads the sender fold's ratio off the
// KindPhase stream of a hand-built batch: the PhaseLocalAgg sample a
// materialization records just before its routing PhaseAllToAll sample
// counts candidates folded, the routing sample records shipped.
func TestFoldRatioFromPhaseEvents(t *testing.T) {
	runWorld(t, 1, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		var phases []obs.Event
		mc.SetObserver(obs.Func(func(e *obs.Event) {
			if e.Kind == obs.KindPhase {
				phases = append(phases, *e)
			}
		}))
		r, err := New(aggSchema("sp", 2, lattice.Min{}), c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		// 12 keys, 5 candidates each: a fold ratio of 5.
		buf := tuple.NewBuffer(3, 60)
		for i := 0; i < 60; i++ {
			buf.Append(tuple.Tuple{tuple.Value(i % 12), 7, tuple.Value(100 - i)})
		}
		r.Materialize(0, buf, true)
		var folded, shipped int64
		for i := 1; i < len(phases); i++ {
			if phases[i-1].Phase == int(metrics.PhaseLocalAgg) && phases[i].Phase == int(metrics.PhaseAllToAll) {
				folded, shipped = phases[i-1].Work, phases[i].Work
				break
			}
		}
		if folded != 60 || shipped != 12 {
			return fmt.Errorf("fold sample %d candidates, routing sample %d records; want 60 and 12 (ratio 5)", folded, shipped)
		}
		return nil
	})
}
