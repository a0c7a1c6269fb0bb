package relation

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"testing/quick"

	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

func setSchema(name string, arity, key int) Schema {
	return Schema{Name: name, Arity: arity, Indep: arity, Key: key}
}

func aggSchema(name string, indep int, agg lattice.Aggregator) Schema {
	return Schema{Name: name, Arity: indep + agg.Width(), Indep: indep, Key: indep, Agg: agg}
}

// unpermute maps a stored tuple of ix back to canonical column order.
func unpermute(ix *Index, stored tuple.Tuple) tuple.Tuple {
	out := make(tuple.Tuple, len(ix.Perm))
	for i, c := range ix.Perm {
		out[c] = stored[i]
	}
	return out
}

func TestSchemaValidate(t *testing.T) {
	cases := []struct {
		s  Schema
		ok bool
	}{
		{setSchema("e", 2, 1), true},
		{setSchema("e", 2, 2), true},
		{aggSchema("a", 2, lattice.Min{}), true},
		{Schema{Name: "z", Arity: 0, Indep: 0, Key: 0}, false},
		{Schema{Name: "z", Arity: 2, Indep: 2, Key: 3}, false},
		{Schema{Name: "z", Arity: 3, Indep: 2, Key: 1}, false},                     // dep cols without agg
		{Schema{Name: "z", Arity: 2, Indep: 2, Key: 1, Agg: lattice.Min{}}, false}, // indep+width != arity
		{Schema{Name: "z", Arity: 1, Indep: 0, Key: 0, Agg: lattice.Min{}}, false}, // no indep col
	}
	for i, c := range cases {
		err := c.s.Validate()
		if (err == nil) != c.ok {
			t.Errorf("case %d (%+v): err = %v", i, c.s, err)
		}
	}
}

// TestHomeRanksCache pins HomeRanks against a direct recomputation for the
// join keys 0..49, of which key 0 is heavy in the load (500 tuples against
// one or two for every other key): every sub-bucket's rank for a heavy key,
// rankOf(bucket, 0) alone for a light one, at every Subs. It holds after the
// placement change a Restore makes — a 3-rank shard set at Subs 3 read into
// a 4-rank world built at Subs 2 — which carries the heavy set with it.
func TestHomeRanksCache(t *testing.T) {
	build := func(c *mpi.Comm, subs int) (*Relation, error) {
		r, err := New(Schema{Name: "hr", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}},
			c, metrics.NewCollector(c.Size()), Config{Subs: subs})
		if err != nil {
			return nil, err
		}
		for _, perm := range [][]int{{0, 1, 2}, {1, 0, 2}} {
			if _, err := r.AddIndex(perm, 1); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	hub := tuple.Tuple{0}.HashPrefix(1)
	check := func(r *Relation) error {
		for _, ix := range r.Indexes() {
			if want := ix.Perm[0] == 0 && r.subs > 1; ix.heavy.has(hub) != want {
				return fmt.Errorf("index %v: key 0 heavy %v, want %v", ix.Perm, !want, want)
			}
			for k := range tuple.Value(50) {
				h := tuple.Tuple{k}.HashPrefix(1)
				b := int(h % uint64(r.comm.Size()))
				got := ix.HomeRanks(h)
				want := map[int]bool{r.rankOf(b, 0): true}
				if r.subs > 1 && ix.JK < r.Indep && ix.heavy.has(h) {
					for s := 0; s < r.subs; s++ {
						want[r.rankOf(b, s)] = true
					}
				}
				if len(got) != len(want) {
					return fmt.Errorf("key %d: HomeRanks %v, want set %v", k, got, want)
				}
				for _, rk := range got {
					if !want[rk] {
						return fmt.Errorf("key %d: HomeRanks %v includes %d", k, got, rk)
					}
				}
			}
		}
		return r.CheckInvariants()
	}
	shards := shardSet(t, 3, func(c *mpi.Comm) (*Relation, error) {
		r, err := build(c, 3)
		if err != nil {
			return nil, err
		}
		r.LoadShare(600, func(i int, emit func(tuple.Tuple)) {
			k := tuple.Value(0)
			if i >= 500 {
				k = tuple.Value(i % 50)
			}
			emit(tuple.Tuple{k, tuple.Value(i), tuple.Value(100 + i)})
		})
		return r, check(r)
	})
	runWorld(t, 4, func(c *mpi.Comm) error {
		r, err := build(c, 2)
		if err != nil {
			return err
		}
		if err := r.Restore(shards); err != nil {
			return err
		}
		if r.subs != 3 {
			return fmt.Errorf("restored Subs %d, want the shard set's 3", r.subs)
		}
		return check(r)
	})
}

// shardSet runs body on a world of n ranks and returns the snapshot of the
// relation it builds on every rank: the complete shard set a restore into a
// world of any size reads.
func shardSet(t *testing.T, n int, body func(c *mpi.Comm) (*Relation, error)) []Shard {
	t.Helper()
	shards := make([]Shard, n)
	runWorld(t, n, func(c *mpi.Comm) error {
		r, err := body(c)
		if err != nil {
			return err
		}
		shards[c.Rank()] = Shard{Origin: c.Rank(), Words: r.SnapshotWords()}
		return nil
	})
	return shards
}

// runWorld is a test helper running an SPMD body over n ranks.
func runWorld(t *testing.T, n int, body func(c *mpi.Comm) error) {
	t.Helper()
	w := mpi.NewWorld(n)
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
}

func TestSetRelationLoadAndDedup(t *testing.T) {
	const ranks = 4
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(setSchema("edge", 2, 1), c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		// All ranks contribute the SAME 100 tuples: global result must be
		// 100 distinct tuples, not 400.
		buf := tuple.NewBuffer(2, 100)
		for i := 0; i < 100; i++ {
			buf.Append(tuple.Tuple{tuple.Value(i % 10), tuple.Value(i)})
		}
		changed := r.Materialize(0, buf, false)
		if changed != 100 {
			return fmt.Errorf("changed = %d, want 100", changed)
		}
		if got := r.GlobalFullCount(); got != 100 {
			return fmt.Errorf("global count = %d", got)
		}
		// Second materialize of the same data: nothing changes and Δ flips
		// to empty.
		changed = r.Materialize(1, buf, false)
		if changed != 0 {
			return fmt.Errorf("re-materialize changed = %d", changed)
		}
		if d := c.Allreduce(uint64(r.LocalDeltaCount()), mpi.OpSum); d != 0 {
			return fmt.Errorf("delta after no-change = %d", d)
		}
		return nil
	})
}

func TestSetRelationPlacementInvariant(t *testing.T) {
	const ranks = 5
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(setSchema("edge", 2, 1), c, mc, Config{Subs: 3})
		if err != nil {
			return err
		}
		r.LoadShare(500, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{tuple.Value(i % 7), tuple.Value(i)})
		})
		// Every locally stored tuple must map to this rank under the
		// placement function.
		bad := 0
		ix := r.Canonical()
		ix.Full().Ascend(func(tt tuple.Tuple) bool {
			if !ix.ownedHere(tt) {
				bad++
			}
			return true
		})
		if bad != 0 {
			return fmt.Errorf("rank %d stores %d misplaced tuples", c.Rank(), bad)
		}
		if got := r.GlobalFullCount(); got != 500 {
			return fmt.Errorf("global = %d", got)
		}
		return nil
	})
}

func TestSecondaryIndexConsistency(t *testing.T) {
	const ranks = 4
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(setSchema("edge", 2, 1), c, mc, Config{Subs: 2})
		if err != nil {
			return err
		}
		rev, err := r.AddIndex([]int{1, 0}, 1) // reversed index on column 2
		if err != nil {
			return err
		}
		r.LoadShare(300, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{tuple.Value(i), tuple.Value(i * 3 % 50)})
		})
		// The reversed index must globally hold the same 300 tuples.
		if got := c.Allreduce(uint64(rev.Full().Len()), mpi.OpSum); got != 300 {
			return fmt.Errorf("reversed index global = %d", got)
		}
		// And each stored tuple unpermutes to an original fact.
		bad := 0
		rev.Full().Ascend(func(stored tuple.Tuple) bool {
			orig := unpermute(rev, stored)
			if orig[1] != orig[0]*3%50 {
				bad++
			}
			return true
		})
		if bad != 0 {
			return fmt.Errorf("%d corrupted tuples in reversed index", bad)
		}
		// Probing the reversed index by its join key must be rank-local:
		// all tuples with the same column-2 value live on one rank (the
		// index has no sub-splittable columns here, but the bucket must
		// still be unique). Iterate the deterministic key domain so every
		// rank performs the same collectives.
		for v := 0; v < 50; v++ {
			n := 0
			rev.Full().AscendPrefix(tuple.Tuple{tuple.Value(v)}, func(tuple.Tuple) bool { n++; return true })
			have := uint64(0)
			if n > 0 {
				have = 1
			}
			holders := c.Allreduce(have, mpi.OpSum)
			if holders > 1 && r.subs == 1 {
				return fmt.Errorf("key %d spread across %d ranks with 1 sub-bucket", v, holders)
			}
			if holders == 0 {
				return fmt.Errorf("key %d missing from reversed index", v)
			}
		}
		return nil
	})
}

func TestAggRelationMinAccumulation(t *testing.T) {
	const ranks = 4
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(aggSchema("sp", 2, lattice.Min{}), c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		// Every rank proposes a different value for key (1,2); min must win.
		buf := tuple.NewBuffer(3, 1)
		buf.Append(tuple.Tuple{1, 2, tuple.Value(10 + c.Rank())})
		changed := r.Materialize(0, buf, false)
		if changed != 1 {
			return fmt.Errorf("changed = %d, want 1 (single key)", changed)
		}
		// Exactly one rank owns the accumulator; its value must be 10.
		if v, ok := r.Lookup(tuple.Tuple{1, 2}); ok {
			if v[0] != 10 {
				return fmt.Errorf("acc = %d, want 10", v[0])
			}
		}
		if got := r.GlobalFullCount(); got != 1 {
			return fmt.Errorf("global = %d", got)
		}
		// Worse value: no change. Better value: change.
		buf.Reset()
		buf.Append(tuple.Tuple{1, 2, 50})
		if ch := r.Materialize(1, buf, false); ch != 0 {
			return fmt.Errorf("worse value changed = %d", ch)
		}
		buf.Reset()
		buf.Append(tuple.Tuple{1, 2, 3})
		if ch := r.Materialize(2, buf, false); ch != 1 {
			return fmt.Errorf("better value changed = %d", ch)
		}
		if v, ok := r.Lookup(tuple.Tuple{1, 2}); ok && v[0] != 3 {
			return fmt.Errorf("acc after improvement = %d", v[0])
		}
		return nil
	})
}

func TestAggIndexStalePurge(t *testing.T) {
	const ranks = 3
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(aggSchema("sp", 2, lattice.Min{}), c, mc, Config{Subs: 1})
		if err != nil {
			return err
		}
		// Index on the second independent column (like SSSP's index on
		// "to" for the next join), and the canonical index.
		rev, err := r.AddIndex([]int{1, 0, 2}, 1)
		if err != nil {
			return err
		}
		canonIx, err := r.AddIndex([]int{0, 1, 2}, 2)
		if err != nil {
			return err
		}
		buf := tuple.NewBuffer(3, 1)
		buf.Append(tuple.Tuple{7, 8, 100})
		r.Materialize(0, buf, false)
		buf.Reset()
		buf.Append(tuple.Tuple{7, 8, 42})
		r.Materialize(1, buf, false)
		// Globally the reversed index must hold exactly one tuple for key
		// (8,7), with value 42 — the stale 100 purged.
		var local, staleCount uint64
		rev.Full().AscendPrefix(tuple.Tuple{8, 7}, func(tt tuple.Tuple) bool {
			local++
			if tt[2] != 42 {
				staleCount++
			}
			return true
		})
		if g := c.Allreduce(local, mpi.OpSum); g != 1 {
			return fmt.Errorf("global entries for key = %d, want 1", g)
		}
		if g := c.Allreduce(staleCount, mpi.OpSum); g != 0 {
			return fmt.Errorf("%d stale entries survived", g)
		}
		// The canonical index too.
		var canon uint64
		canonIx.Full().AscendPrefix(tuple.Tuple{7, 8}, func(tt tuple.Tuple) bool {
			if tt[2] == 42 {
				canon++
			}
			return true
		})
		if g := c.Allreduce(canon, mpi.OpSum); g != 1 {
			return fmt.Errorf("canonical index entries = %d", g)
		}
		return nil
	})
}

func TestAggSubBucketedTwoPhase(t *testing.T) {
	// With Subs > 1 every record still travels straight to its key's
	// owner; the result must equal the Subs == 1 answer.
	const ranks = 4
	for _, subs := range []int{1, 4} {
		subs := subs
		runWorld(t, ranks, func(c *mpi.Comm) error {
			mc := metrics.NewCollector(ranks)
			r, err := New(aggSchema("sp", 1, lattice.Min{}), c, mc, Config{Subs: subs})
			if err != nil {
				return err
			}
			// 1000 proposals for 10 keys from each rank.
			buf := tuple.NewBuffer(2, 1000)
			for i := 0; i < 1000; i++ {
				key := tuple.Value(i % 10)
				val := tuple.Value((i*7+c.Rank()*13)%997 + 1)
				buf.Append(tuple.Tuple{key, val})
			}
			if ch := r.Materialize(0, buf, false); ch != 10 {
				return fmt.Errorf("subs=%d: changed = %d, want 10", subs, ch)
			}
			// Verify each key's min against a direct computation.
			for key := 0; key < 10; key++ {
				want := ^tuple.Value(0)
				for rk := 0; rk < ranks; rk++ {
					for i := key; i < 1000; i += 10 {
						v := tuple.Value((i*7+rk*13)%997 + 1)
						if v < want {
							want = v
						}
					}
				}
				var local uint64
				if v, ok := r.Lookup(tuple.Tuple{tuple.Value(key)}); ok {
					local = uint64(v[0])
				}
				got := c.Allreduce(local, mpi.OpMax)
				if got != uint64(want) {
					return fmt.Errorf("subs=%d key=%d: min = %d, want %d", subs, key, got, want)
				}
			}
			return nil
		})
	}
}

// TestMSumExactlyOnceAccumulation pins exactly-once delivery for the
// non-idempotent lattices across the sender fold: every rank holds many
// duplicates of every key, a key's duplicates are spread over all ranks,
// and a second pass adds more, so a fold that dropped or repeated a
// candidate anywhere shows up in the sum.
func TestMSumExactlyOnceAccumulation(t *testing.T) {
	const ranks, keys = 3, 8
	for _, agg := range []lattice.Aggregator{lattice.MCount{}, lattice.MSum{}} {
		// one is a candidate's contribution; both sums stay exact.
		one := tuple.Value(1)
		if agg.Name() == (lattice.MSum{}).Name() {
			one = math.Float64bits(0.5)
		}
		runWorld(t, ranks, func(c *mpi.Comm) error {
			mc := metrics.NewCollector(ranks)
			r, err := New(aggSchema("cnt", 1, agg), c, mc, Config{Subs: 2})
			if err != nil {
				return err
			}
			// Each rank contributes (rank+1)·(key+1) candidates per key and
			// pass, interleaved so a key's duplicates are not adjacent.
			buf := tuple.NewBuffer(2, 0)
			for i := 0; i < (c.Rank()+1)*keys; i++ {
				for key := 0; key < keys; key++ {
					if i < (c.Rank()+1)*(key+1) {
						buf.Append(tuple.Tuple{tuple.Value(key), one})
					}
				}
			}
			for pass := 1; pass <= 2; pass++ {
				r.Materialize(pass-1, buf, false)
				for key := 0; key < keys; key++ {
					var local uint64
					if v, ok := r.Lookup(tuple.Tuple{tuple.Value(key)}); ok {
						local = uint64(v[0])
					}
					n := pass * (key + 1) * ranks * (ranks + 1) / 2
					want := uint64(n)
					if one != 1 {
						want = math.Float64bits(0.5 * float64(n))
					}
					if got := c.Allreduce(local, mpi.OpMax); got != want {
						return fmt.Errorf("%s pass %d key %d: sum word %#x, want %#x (%d candidates)",
							agg.Name(), pass, key, got, want, n)
					}
				}
			}
			return nil
		})
	}
}

func TestAddIndexValidation(t *testing.T) {
	runWorld(t, 1, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(1)
		r, _ := New(aggSchema("sp", 2, lattice.Min{}), c, mc, Config{})
		if _, err := r.AddIndex([]int{0, 1}, 1); err == nil {
			return fmt.Errorf("accepted wrong-length perm")
		}
		if _, err := r.AddIndex([]int{0, 0, 2}, 1); err == nil {
			return fmt.Errorf("accepted duplicate perm entry")
		}
		if _, err := r.AddIndex([]int{2, 0, 1}, 1); err == nil {
			return fmt.Errorf("accepted dependent column before independent")
		}
		if _, err := r.AddIndex([]int{0, 1, 2}, 3); err == nil {
			return fmt.Errorf("accepted join on dependent column")
		}
		if _, err := r.AddIndex([]int{1, 0, 2}, 1); err != nil {
			return fmt.Errorf("rejected valid index: %v", err)
		}
		if r.FindIndex([]int{1, 0, 2}, 1) == nil {
			return fmt.Errorf("FindIndex missed registered index")
		}
		if r.FindIndex([]int{1, 0, 2}, 2) != nil {
			return fmt.Errorf("FindIndex matched wrong jk")
		}
		return nil
	})
}

func TestEachAccRebuildsCanonicalTuples(t *testing.T) {
	runWorld(t, 2, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(2)
		r, _ := New(aggSchema("sp", 2, lattice.Min{}), c, mc, Config{})
		buf := tuple.NewBuffer(3, 2)
		if c.Rank() == 0 {
			buf.Append(tuple.Tuple{1, 2, 30})
			buf.Append(tuple.Tuple{4, 5, 60})
		}
		r.Materialize(0, buf, false)
		var local uint64
		r.EachAcc(func(t tuple.Tuple) {
			if (t[0] == 1 && t[1] == 2 && t[2] == 30) || (t[0] == 4 && t[1] == 5 && t[2] == 60) {
				local++
			} else {
				local += 1000 // corrupt tuple marker
			}
		})
		if g := c.Allreduce(local, mpi.OpSum); g != 2 {
			return fmt.Errorf("EachAcc saw wrong tuples (marker %d)", g)
		}
		return nil
	})
}

func TestCheckInvariantsAfterChurn(t *testing.T) {
	build := func(c *mpi.Comm) (*Relation, error) {
		r, err := New(aggSchema("sp", 2, lattice.Min{}), c, metrics.NewCollector(c.Size()), Config{Subs: 2})
		if err != nil {
			return nil, err
		}
		_, err = r.AddIndex([]int{1, 0, 2}, 1)
		return r, err
	}
	shards := shardSet(t, 3, func(c *mpi.Comm) (*Relation, error) {
		r, err := build(c)
		if err != nil {
			return nil, err
		}
		// Churn: repeated improvements across many keys.
		for round := 0; round < 5; round++ {
			buf := tuple.NewBuffer(3, 64)
			for i := 0; i < 64; i++ {
				key := tuple.Value(i % 16)
				buf.Append(tuple.Tuple{key, key + 1, tuple.Value(100 - round*10 + i%3)})
			}
			r.Materialize(round, buf, false)
			if err := r.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("round %d: %v", round, err)
			}
		}
		return r, nil
	})
	// Change placement (a 4-rank world restores the 3-rank shard set) and
	// re-check.
	runWorld(t, 4, func(c *mpi.Comm) error {
		r, err := build(c)
		if err != nil {
			return err
		}
		if err := r.Restore(shards); err != nil {
			return err
		}
		if got := r.GlobalFullCount(); got != 16 {
			return fmt.Errorf("restored %d keys, want 16", got)
		}
		return r.CheckInvariants()
	})
}

// TestCheckInvariantsCatchesIndexDrift flips a dependent word in a registered
// index of a placed aggregated relation — the placement index, which lives
// with the accumulator, and a replica, which does not — and requires the
// check to report it, though every count still agrees.
func TestCheckInvariantsCatchesIndexDrift(t *testing.T) {
	const ranks = 3
	runWorld(t, ranks, func(c *mpi.Comm) error {
		r, err := New(Schema{Name: "sp", Arity: 3, Indep: 2, Key: 1, Agg: lattice.Min{}},
			c, metrics.NewCollector(ranks), Config{Subs: 2})
		if err != nil {
			return err
		}
		byMid, err := r.AddIndex([]int{1, 0, 2}, 1)
		if err != nil {
			return err
		}
		r.PlaceOn(byMid)
		replica, err := r.AddIndex([]int{1, 0, 2}, 2)
		if err != nil {
			return err
		}
		r.LoadShare(60, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{tuple.Value(i % 5), tuple.Value(i), tuple.Value(100 + i)})
		})
		// With Δ consumed, only the mirror of the accumulator can tell.
		r.ClearDelta()
		if err := r.CheckInvariants(); err != nil {
			return fmt.Errorf("before the flip: %v", err)
		}
		for _, ix := range []*Index{byMid, replica} {
			// Every rank flips its first tuple's dependent word; 60 keys over
			// 3 ranks leave at least one rank with a tuple to flip.
			flip := func() {
				ix.Full().Ascend(func(t tuple.Tuple) bool {
					t[2] ^= 1
					return false
				})
			}
			flip()
			if err := r.CheckInvariants(); err == nil {
				return fmt.Errorf("index %v (jk %d): a flipped dependent word passed the check", ix.Perm, ix.JK)
			}
			flip()
			if err := r.CheckInvariants(); err != nil {
				return fmt.Errorf("index %v (jk %d) flipped back: %v", ix.Perm, ix.JK, err)
			}
		}
		return nil
	})
}

func TestCheckInvariantsSetRelation(t *testing.T) {
	const ranks = 3
	runWorld(t, ranks, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(ranks)
		r, err := New(setSchema("edge", 2, 1), c, mc, Config{Subs: 2})
		if err != nil {
			return err
		}
		if _, err := r.AddIndex([]int{1, 0}, 1); err != nil {
			return err
		}
		r.LoadShare(400, func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{tuple.Value(i % 13), tuple.Value(i)})
		})
		return r.CheckInvariants()
	})
}

// TestQuickPlacementDeterministicAndInRange: every tuple maps to exactly
// one rank, stably, among the HomeRanks of its join key: a light key's
// bucket alone whatever its other columns, a heavy key's (every odd slot
// is marked heavy here) any of its sub-bucket ranks.
func TestQuickPlacementDeterministicAndInRange(t *testing.T) {
	runWorld(t, 3, func(c *mpi.Comm) error {
		mc := metrics.NewCollector(c.Size())
		r, err := New(setSchema("edge", 3, 1), c, mc, Config{Subs: 4})
		if err != nil {
			return err
		}
		ix := r.Canonical()
		var odd []mpi.Word
		for slot := mpi.Word(1); slot < heavySlots; slot += 2 {
			odd = append(odd, slot)
		}
		ix.heavy = readHeavy(odd)
		f := func(a, b, w uint64) bool {
			t1, t2 := tuple.Tuple{a, b, w}, tuple.Tuple{a, b + 1, w + 7}
			h := t1.HashPrefix(1)
			home := ix.homeOf(t1)
			if home != ix.homeOf(t1) || !slices.Contains(ix.HomeRanks(h), home) {
				return false
			}
			return ix.heavy.has(h) || home == int(h%uint64(c.Size())) && ix.homeOf(t2) == home
		}
		return quick.Check(f, &quick.Config{MaxCount: 500})
	})
}
