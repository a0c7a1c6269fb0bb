package relation

import (
	"slices"

	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// Heavy join keys. Sub-buckets (§IV-C) spread the tuples of one join key
// over several ranks so that a skewed key's join work does not pile up on
// one of them. Only a heavy key needs that: a light key keeps every tuple at
// sub-bucket 0 of its bucket, on every index and in every accumulator, so a
// join of two indexes that hold no heavy key is co-partitioned, as at Subs 1.
//
// A relation decides its heavy keys once, from its first bulk load
// (LoadFacts), before that load places a tuple, and keeps them for the run;
// a relation whose first pass is not a load has none. Keys are counted by
// slot — the join key's hash modulo heavySlots — in one AllreduceVec, so the
// set depends on the loaded facts only, never on the world size, and a light
// key sharing a heavy key's slot is split with it. Checkpoints carry the sets
// (SnapshotWords), so a restore at any world size places every tuple as a
// from-scratch run of that size does.
const (
	// heavySlots is the number of slots join keys are counted in.
	heavySlots = 1024
	// heavyMultiple and heavyFloor make a slot heavy: its count must exceed
	// heavyMultiple times the mean count of an occupied slot, which is never
	// below the mean count per key, and heavyFloor, so that a small
	// relation never splits.
	heavyMultiple = 8
	heavyFloor    = 256
)

// heavySet is a non-empty set of heavy slots; a nil set holds none.
type heavySet [heavySlots / 64]uint64

// has reports whether a join key hashing to h is heavy.
func (s *heavySet) has(h uint64) bool {
	slot := h % heavySlots
	return s != nil && s[slot/64]&(1<<(slot%64)) != 0
}

// appendHeavy appends s as its slot count and its slots, ascending.
func appendHeavy(out []mpi.Word, s *heavySet) []mpi.Word {
	at := len(out)
	out = append(out, 0)
	for slot := range uint64(heavySlots) {
		if s.has(slot) {
			out = append(out, slot)
		}
	}
	out[at] = mpi.Word(len(out) - at - 1)
	return out
}

// readHeavy returns the set of slots, ascending below heavySlots (checked
// by validSlots), or nil for none.
func readHeavy(slots []mpi.Word) *heavySet {
	if len(slots) == 0 {
		return nil
	}
	s := new(heavySet)
	for _, slot := range slots {
		s[slot/64] |= 1 << (slot % 64)
	}
	return s
}

// validSlots reports whether slots ascend strictly below heavySlots.
func validSlots(slots []mpi.Word) bool {
	for i, slot := range slots {
		if slot >= heavySlots || i > 0 && slot <= slots[i-1] {
			return false
		}
	}
	return true
}

// heavySets returns the number of heavy sets the relation keeps: one per
// index, then the accumulator placement's.
func (r *Relation) heavySets() int { return len(r.indexes) + 1 }

// heavyOf returns heavy set i (heavySets) and the source columns it keys,
// in key order; the placement of a set relation keys none.
func (r *Relation) heavyOf(i int) (*heavySet, []int) {
	if i < len(r.indexes) {
		ix := r.indexes[i]
		return ix.heavy, ix.Perm[:ix.JK]
	}
	if r.Agg == nil {
		return nil, nil
	}
	return r.placeHeavy, r.placePerm[:r.placeJK]
}

// setHeavy replaces heavy set i (heavySets).
func (r *Relation) setHeavy(i int, s *heavySet) {
	if i < len(r.indexes) {
		r.indexes[i].heavy = s
	} else if r.Agg != nil {
		r.placeHeavy = s
	}
}

// keyOf returns the first heavy set keyed on the same columns as set i,
// which counts for both, or -1 if set i keys no columns that can split:
// none, or no fewer than the independent ones.
func (r *Relation) keyOf(i int) int {
	_, cols := r.heavyOf(i)
	if len(cols) == 0 || len(cols) >= r.Indep {
		return -1
	}
	for j := range i {
		if _, c := r.heavyOf(j); slices.Equal(c, cols) {
			return j
		}
	}
	return i
}

// decideHeavy fixes the heavy sets from a bulk load's facts (canonical
// order, this rank's share) before they are placed, and only on the
// relation's first pass. Every key that could split — Subs above 1 and
// fewer key columns than independent ones — is counted by slot, and one
// AllreduceVec sums the counts; at Subs 1, or with no such key, nothing is
// counted or exchanged. Collective.
func (r *Relation) decideHeavy(facts *tuple.Buffer) {
	if r.placed {
		return
	}
	r.placed = true
	if r.subs == 1 {
		return
	}
	// slot[i] is where set i's counts start in counts, -1 if it has none.
	n := r.heavySets()
	var slotBuf [8]int
	slot := slotBuf[:0]
	keys := 0
	for i := range n {
		slot = append(slot, -1)
		if r.keyOf(i) == i {
			slot[i] = keys * heavySlots
			keys++
		}
	}
	if keys == 0 {
		return
	}
	counts := make([]mpi.Word, keys*heavySlots)
	var keyBuf [8]tuple.Value
	key := tuple.Tuple(keyBuf[:])
	if r.Indep > len(keyBuf) {
		key = make(tuple.Tuple, r.Indep)
	}
	for w := facts.Words; len(w) >= r.Arity; w = w[r.Arity:] {
		for i := range n {
			if slot[i] < 0 {
				continue
			}
			_, cols := r.heavyOf(i)
			for j, c := range cols {
				key[j] = w[c]
			}
			counts[slot[i]+int(key.HashPrefix(len(cols))%heavySlots)]++
		}
	}
	r.comm.AllreduceVec(counts, counts, mpi.OpSum)
	for i := range n {
		k := r.keyOf(i)
		if k < 0 {
			continue
		}
		if k < i {
			s, _ := r.heavyOf(k)
			r.setHeavy(i, s)
			continue
		}
		r.setHeavy(i, heavyOver(counts[slot[i]:slot[i]+heavySlots]))
	}
}

// heavyOver returns the slots whose count is heavy among counts, or nil.
func heavyOver(counts []mpi.Word) *heavySet {
	var total, occupied mpi.Word
	for _, c := range counts {
		total += c
		if c > 0 {
			occupied++
		}
	}
	var s *heavySet
	for slot, c := range counts {
		if c > heavyFloor && c*occupied > heavyMultiple*total {
			if s == nil {
				s = new(heavySet)
			}
			s[slot/64] |= 1 << (slot % 64)
		}
	}
	return s
}
