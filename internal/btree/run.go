package btree

import (
	"slices"

	"paralagg/internal/tuple"
)

// Run is a duplicate-free run of same-arity tuples in ascending order, held
// in one flat slice: the storage of a version that is written once per pass
// and then only read, like a relation index's Δ. Append collects a batch in
// any order and Sort orders and deduplicates it; the readers (Len, Has,
// Ascend, AscendPrefix) binary-search the run under the Tree's rules, and
// their tuples are views under Ascend's. Reset keeps the capacity, so a warm
// refill allocates nothing. The zero value is an empty run.
type Run struct {
	arity int
	words []tuple.Value
}

// Reset empties the run and sets the arity of the tuples it takes next.
func (r *Run) Reset(arity int) {
	r.arity = arity
	r.words = r.words[:0]
}

// Append adds copies of the tuples laid end to end in words, whole tuples
// of the run's arity. The run is in order again only after the next Sort.
func (r *Run) Append(words []tuple.Value) { r.words = append(r.words, words...) }

// Extend appends one tuple's worth of unspecified words and returns them,
// for a caller that writes the tuple in place.
func (r *Run) Extend() tuple.Tuple {
	n := len(r.words)
	r.words = slices.Grow(r.words, r.arity)[:n+r.arity]
	return r.words[n : n+r.arity : n+r.arity]
}

// Sort puts the appended tuples in ascending order and drops duplicates, in
// place: s orders the tuples, and the run follows the permutation's cycles
// through one tuple of s's scratch. A run that already ascends is left as is.
func (r *Run) Sort(s *tuple.Sorter) {
	a := r.arity
	if ascending(a, r.words) {
		return
	}
	perm := s.Order(a, r.words)
	tmp := s.Scratch(a)
	at := func(i int) []tuple.Value { return r.words[i*a : (i+1)*a] }
	for start, p := range perm {
		if int(p) == start {
			continue
		}
		// Position j takes tuple perm[j]; each visited position is marked
		// done by pointing perm at itself.
		copy(tmp, at(start))
		j := start
		for {
			k := int(perm[j])
			perm[j] = uint32(j)
			if k == start {
				copy(at(j), tmp)
				break
			}
			copy(at(j), at(k))
			j = k
		}
	}
	n := 0
	for i := 0; i < len(r.words)/a; i++ {
		if n == 0 || cmpWords(at(i), at(n-1)) != 0 {
			copy(at(n), at(i))
			n++
		}
	}
	r.words = r.words[:n*a]
}

// Grow makes room for n more tuples, so that many Appends or Extends do not
// reallocate.
func (r *Run) Grow(n int) { r.words = slices.Grow(r.words, n*r.arity) }

// Words returns the run's tuples laid end to end, valid until the run next
// changes.
func (r *Run) Words() []tuple.Value { return r.words }

// Len returns the number of tuples in the run.
func (r *Run) Len() int {
	if r.arity == 0 {
		return 0
	}
	return len(r.words) / r.arity
}

// MemWords reports the run's capacity in words.
func (r *Run) MemWords() int64 { return int64(cap(r.words)) }

// search returns the index of the first tuple whose leading len(key) words
// are not below key.
func (r *Run) search(key []tuple.Value) int { return searchRange(r.words, r.arity, 0, r.Len(), key) }

// searchRange returns the index of the first of words' arity-word tuples
// lo..hi-1 whose leading len(key) words are not below key, or hi.
func searchRange(words []tuple.Value, a, lo, hi int, key []tuple.Value) int {
	k := len(key)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpWords(words[mid*a:mid*a+k], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Has reports whether the exact tuple k is in the run.
func (r *Run) Has(k tuple.Tuple) bool {
	if len(k) != r.arity || r.arity == 0 {
		return false
	}
	i := r.search(k)
	return i < r.Len() && cmpWords(r.words[i*r.arity:(i+1)*r.arity], k) == 0
}

// Ascend calls fn for every tuple in order; fn returning false stops the scan.
func (r *Run) Ascend(fn func(tuple.Tuple) bool) {
	a := r.arity
	for off := 0; off < len(r.words); off += a {
		if !fn(r.words[off : off+a : off+a]) {
			return
		}
	}
}

// AscendPrefix calls fn, in order, for every tuple whose first len(prefix)
// columns equal prefix: a binary search to the first, then a scan. fn
// returning false stops the scan.
func (r *Run) AscendPrefix(prefix tuple.Tuple, fn func(tuple.Tuple) bool) {
	a, k := r.arity, len(prefix)
	if a == 0 || k > a {
		return
	}
	for off := r.search(prefix) * a; off < len(r.words); off += a {
		if cmpWords(r.words[off:off+k], prefix) != 0 || !fn(r.words[off:off+a:off+a]) {
			return
		}
	}
}

// ascending reports whether words' arity-word tuples are strictly ascending.
func ascending(arity int, words []tuple.Value) bool {
	for off := arity; off < len(words); off += arity {
		if cmpWords(words[off-arity:off], words[off:off+arity]) >= 0 {
			return false
		}
	}
	return true
}
