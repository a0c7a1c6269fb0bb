package tuple

import (
	"cmp"
	"slices"
)

// radixMin is the batch size below which SortedRun sorts by comparison,
// which a radix pass's 256-entry histogram does not beat.
const radixMin = 256

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
	if n < radixMin {
		slices.SortFunc(perm, func(x, y uint32) int {
			if c := at(x).ComparePrefix(at(y), arity); c != 0 {
				return c
			}
			return cmp.Compare(x, y)
		})
	} else {
		perm = radixSort(arity, words, perm)
	}
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

// radixSort orders perm, a permutation of the tuples of words, by an LSD
// radix sort: the last column first, each column least significant byte
// first, one counting pass per byte that varies across the batch. Every pass
// is stable, so equal tuples keep perm's order: an identity perm comes out
// as a comparison sort that breaks ties by position leaves it. It returns
// the sorted permutation, perm or a buffer of the same length.
func radixSort(arity int, words []Value, perm []uint32) []uint32 {
	n := len(perm)
	key, keyTmp, permTmp := make([]Value, n), make([]Value, n), make([]uint32, n)
	var count [256]int
	for c := arity - 1; c >= 0; c-- {
		or, and := Value(0), ^Value(0)
		for i := c; i < n*arity; i += arity {
			or, and = or|words[i], and&words[i]
		}
		for i, p := range perm {
			key[i] = words[int(p)*arity+c]
		}
		for shift := 0; shift < 64; shift += 8 {
			if (or^and)>>shift&0xff == 0 {
				continue // the same byte in every tuple reorders nothing
			}
			clear(count[:])
			for _, k := range key {
				count[k>>shift&0xff]++
			}
			for b, sum := 0, 0; b < len(count); b++ {
				count[b], sum = sum, sum+count[b]
			}
			for i, k := range key {
				j := &count[k>>shift&0xff]
				keyTmp[*j], permTmp[*j] = k, perm[i]
				*j++
			}
			key, keyTmp = keyTmp, key
			perm, permTmp = permTmp, perm
		}
	}
	return perm
}
