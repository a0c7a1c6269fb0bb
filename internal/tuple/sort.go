package tuple

import (
	"cmp"
	"slices"
)

// SortedRun returns the distinct arity-word tuples of words in ascending
// order, the input a bottom-up tree build takes. When first is non-nil it
// must hold one flag per input tuple, all false; the earliest occurrence of
// every distinct tuple is flagged, so a caller can still walk the input in
// arrival order and know which tuples survived deduplication. An input that
// is already strictly ascending is returned as is, not copied.
func SortedRun(arity int, words []Value, first []bool) []Value {
	n := len(words) / arity
	at := func(i uint32) Tuple { return Tuple(words[int(i)*arity : (int(i)+1)*arity]) }
	ascending := true
	for i := 1; i < n && ascending; i++ {
		ascending = at(uint32(i-1)).ComparePrefix(at(uint32(i)), arity) < 0
	}
	if ascending {
		for i := range first {
			first[i] = true
		}
		return words
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortFunc(perm, func(x, y uint32) int {
		if c := at(x).ComparePrefix(at(y), arity); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	run := make([]Value, 0, len(words))
	for k, i := range perm {
		if k > 0 && at(i).ComparePrefix(at(perm[k-1]), arity) == 0 {
			continue
		}
		if first != nil {
			first[i] = true
		}
		run = append(run, at(i)...)
	}
	return run
}
