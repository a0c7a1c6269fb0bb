package relation

import (
	"fmt"

	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// CheckInvariants verifies the relation's distributed bookkeeping and
// returns the first violation. It is collective (every rank must call it)
// and intended for tests and debugging:
//
//   - every tuple stored in every index maps to this rank under the
//     placement function;
//   - each index's Δ is a subset of its FULL version;
//   - every index holds the same global tuple count as the canonical
//     storage (the accumulator for aggregated relations);
//   - for aggregated relations, each index holds at most one tuple per
//     independent key, and local accumulator entries agree with the
//     canonical index's stored tuples.
func (r *Relation) CheckInvariants() error {
	var localErr error
	fail := func(format string, args ...interface{}) {
		if localErr == nil {
			localErr = fmt.Errorf(format, args...)
		}
	}

	for id, ix := range r.indexes {
		ix.Full.Ascend(func(t tuple.Tuple) bool {
			if !ix.ownedHere(t) {
				fail("relation %s index %d: tuple %v stored on rank %d but placed elsewhere",
					r.Name, id, t, r.comm.Rank())
				return false
			}
			return true
		})
		ix.Delta.Ascend(func(t tuple.Tuple) bool {
			if !ix.Full.Has(t) {
				fail("relation %s index %d: Δ tuple %v missing from FULL", r.Name, id, t)
				return false
			}
			return true
		})
		if r.Agg != nil {
			// One stored tuple per independent key.
			var prev tuple.Tuple
			ix.Full.Ascend(func(t tuple.Tuple) bool {
				if prev != nil && prev.ComparePrefix(t, ix.indepLen) == 0 {
					fail("relation %s index %d: duplicate entries for key of %v", r.Name, id, t)
					return false
				}
				prev = t.Clone()
				return true
			})
		}
	}

	if r.Agg != nil && localErr == nil {
		// The canonical index lives with the accumulator, so every entry
		// must mirror a local accumulator value; the count check below
		// catches accumulator entries it lacks.
		canon := r.indexes[0]
		canon.Full.Ascend(func(t tuple.Tuple) bool {
			v := r.acc.Get(t[:r.Indep])
			if v == nil {
				fail("relation %s: canonical index %v has no accumulator entry on rank %d", r.Name, t, r.comm.Rank())
				return false
			}
			for i, d := range v {
				if t[r.Indep+i] != d {
					fail("relation %s: canonical index %v disagrees with accumulator %v", r.Name, t, v)
					return false
				}
			}
			return true
		})
	}

	// Collective checks: all indexes carry the same global count as the
	// canonical storage. Every rank must participate even if it already
	// found a local error.
	canonCount := r.GlobalFullCount()
	for id, ix := range r.indexes {
		global := r.comm.Allreduce(uint64(ix.Full.Len()), mpi.OpSum)
		if r.leaky == nil && global != canonCount && localErr == nil {
			localErr = fmt.Errorf("relation %s index %d: global count %d, canonical %d",
				r.Name, id, global, canonCount)
		}
	}

	// Agree on the outcome so every rank returns an error if any rank saw
	// one.
	bad := uint64(0)
	if localErr != nil {
		bad = 1
	}
	total := r.comm.Allreduce(bad, mpi.OpSum)
	if localErr != nil {
		return localErr
	}
	if total > 0 {
		return fmt.Errorf("relation %s: invariant violation on another rank", r.Name)
	}
	return nil
}
