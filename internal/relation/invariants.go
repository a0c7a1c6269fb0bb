package relation

import (
	"fmt"
	"slices"

	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// CheckInvariants verifies the relation's distributed bookkeeping and
// returns the first violation. It is collective (every rank must call it)
// and intended for tests and debugging:
//
//   - every tuple stored in every index maps to this rank under the
//     placement function;
//   - each index's Δ run is strictly ascending, and Δ is a subset of its
//     FULL version;
//   - every index holds the same global tuple count as the reference store
//     (the accumulator for aggregated relations, the canonical index for
//     sets);
//   - for aggregated relations, each index holds at most one tuple per
//     independent key, and mirrors the accumulator: a local index, caught
//     up first, entry by entry, every index through the global sum of its
//     tuple digests.
func (r *Relation) CheckInvariants() error {
	var localErr error
	fail := func(format string, args ...interface{}) {
		if localErr == nil {
			localErr = fmt.Errorf(format, args...)
		}
	}

	for id, ix := range r.indexes {
		ix.Full().Ascend(func(t tuple.Tuple) bool {
			if !ix.ownedHere(t) {
				fail("relation %s index %d: tuple %v stored on rank %d but placed elsewhere",
					r.Name, id, t, r.comm.Rank())
				return false
			}
			return true
		})
		var last tuple.Tuple
		ix.Delta().Ascend(func(t tuple.Tuple) bool {
			if last != nil && last.Compare(t) >= 0 {
				fail("relation %s index %d: Δ tuple %v does not ascend from %v", r.Name, id, t, last)
				return false
			}
			last = append(last[:0], t...)
			if !ix.fullView().Has(t) {
				fail("relation %s index %d: Δ tuple %v missing from FULL", r.Name, id, t)
				return false
			}
			return true
		})
		if r.Agg == nil {
			continue
		}
		// One stored tuple per independent key.
		var prev tuple.Tuple
		ix.fullView().Ascend(func(t tuple.Tuple) bool {
			if prev != nil && prev.ComparePrefix(t, ix.indepLen) == 0 {
				fail("relation %s index %d: duplicate entries for key of %v", r.Name, id, t)
				return false
			}
			prev = t.Clone()
			return true
		})
		if !ix.local || localErr != nil {
			continue
		}
		// A local index lives with the accumulator, so every entry must
		// mirror a local accumulator value; the count check below catches
		// accumulator entries it lacks.
		canon := r.tupleScratch()
		ix.fullView().Ascend(func(t tuple.Tuple) bool {
			for i, c := range ix.Perm {
				canon[c] = t[i]
			}
			v := r.acc.Get(canon[:r.Indep])
			if v == nil {
				fail("relation %s index %d: %v has no accumulator entry on rank %d", r.Name, id, canon, r.comm.Rank())
				return false
			}
			if !slices.Equal(canon[r.Indep:], v) {
				fail("relation %s index %d: %v disagrees with accumulator %v", r.Name, id, canon, v)
				return false
			}
			return true
		})
	}

	// Collective checks: all indexes carry the same global count as the
	// reference storage, and an aggregated relation's indexes the same
	// global digest as its accumulator. Every rank must participate even if
	// it already found a local error.
	refCount := r.GlobalFullCount()
	var refDigest uint64
	if r.Agg != nil {
		refDigest = r.comm.Allreduce(r.digestAcc(), mpi.OpSum)
	}
	for id, ix := range r.indexes {
		global := r.comm.Allreduce(uint64(ix.fullView().Len()), mpi.OpSum)
		if r.leaky == nil && global != refCount && localErr == nil {
			localErr = fmt.Errorf("relation %s index %d: global count %d, reference %d",
				r.Name, id, global, refCount)
		}
		if r.Agg != nil {
			digest := r.comm.Allreduce(ix.digest(ix.fullView()), mpi.OpSum)
			if digest != refDigest && localErr == nil {
				localErr = fmt.Errorf("relation %s index %d: stored tuples do not mirror the accumulator", r.Name, id)
			}
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
