package tuple

import "slices"

// radixMin is the batch size below which Order sorts by comparison, which
// a radix pass's 256-entry histogram does not beat.
const radixMin = 256

// Sorter orders batches of tuples in scratch it keeps between calls, so a
// warm Order over a batch no larger than an earlier one allocates nothing.
// The zero value is ready to use.
type Sorter struct {
	perm, permTmp []uint32
	key, keyTmp   []Value
}

// Order returns the permutation that lists the arity-word tuples of words in
// ascending order, equal tuples in input order. It aliases the sorter's
// scratch and is valid until the next Order.
func (s *Sorter) Order(arity int, words []Value) []uint32 {
	n := len(words) / arity
	s.perm = slices.Grow(s.perm[:0], n)[:n]
	perm := s.perm
	for i := range perm {
		perm[i] = uint32(i)
	}
	if n >= radixMin {
		return s.radixSort(arity, words, perm)
	}
	// A binary insertion sort: n log n compares, inline, and each insertion
	// shifts fewer than radixMin indexes in one short copy. Inserting after
	// the equal tuples keeps it stable.
	for i := 1; i < n; i++ {
		p := perm[i]
		t := Tuple(words[int(p)*arity : (int(p)+1)*arity])
		lo, hi := 0, i
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			q := int(perm[mid]) * arity
			if Tuple(words[q:q+arity]).ComparePrefix(t, arity) <= 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		copy(perm[lo+1:i+1], perm[lo:i])
		perm[lo] = p
	}
	return perm
}

// Scratch returns n words of the sorter's scratch, valid until its next
// Order or Scratch: room for a caller that moves tuples along Order's result.
func (s *Sorter) Scratch(n int) []Value {
	s.key = slices.Grow(s.key[:0], n)[:n]
	return s.key
}

// MemWords reports the sorter's scratch capacity in words.
func (s *Sorter) MemWords() int64 {
	return int64(cap(s.key)+cap(s.keyTmp)) + int64(cap(s.perm)+cap(s.permTmp)+1)/2
}

// radixSort orders perm, a permutation of the tuples of words, by an LSD
// radix sort: the last column first, each column least significant byte
// first, one counting pass per byte that varies across the batch. Every pass
// is stable, so equal tuples keep perm's order: an identity perm comes out
// as a comparison sort that breaks ties by position leaves it. It returns
// the sorted permutation, perm or a scratch buffer of the same length.
func (s *Sorter) radixSort(arity int, words []Value, perm []uint32) []uint32 {
	n := len(perm)
	s.key = slices.Grow(s.key[:0], n)[:n]
	s.keyTmp = slices.Grow(s.keyTmp[:0], n)[:n]
	s.permTmp = slices.Grow(s.permTmp[:0], n)[:n]
	key, keyTmp, permTmp := s.key, s.keyTmp, s.permTmp
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
