// Package wordmap provides an allocation-free hash table keyed on
// fixed-width sequences of 64-bit words — the storage primitive behind the
// relation layer's aggregate accumulators and pre-aggregation scratch
// tables.
//
// The design goal is zero allocator traffic on the hot path: probing an
// existing key allocates nothing, and inserting amortizes to nothing. The
// table is open-addressing with linear probing over a power-of-two slot
// array; keys and values live contiguously in a single flat arena
// ([]tuple.Value), so there are no per-entry slice headers, no string
// conversions, and no boxed values. Entries are never deleted one at a
// time: Filter drops a batch by compacting the arena and re-seating every
// slot, which keeps probing tombstone-free, as a rehash just re-seats live
// entries.
//
// Entry references returned by Get/Upsert/Each alias the arena and stay
// valid only until the next Upsert (which may grow the arena) or Reset.
// Callers that retain a key or value must copy it out.
package wordmap

import (
	"fmt"

	"paralagg/internal/tuple"
)

// Map is a hash table from keyWidth-word keys to valWidth-word values. The
// zero value is not usable; call New. A Map holds at most 2³²−1 entries
// (slot references are 32-bit to halve index memory).
type Map struct {
	keyW   int
	valW   int
	stride int
	// slots holds 1-based entry references; 0 marks an empty slot. Length
	// is always a power of two.
	slots []uint32
	mask  uint64
	// arena stores entry e at arena[e*stride : (e+1)*stride]: key words
	// first, value words after.
	arena []tuple.Value
	n     int
}

// New returns an empty map for keyWidth-word keys and valWidth-word values.
// valWidth may be zero (a set of keys).
func New(keyWidth, valWidth int) *Map {
	return NewWithCapacity(keyWidth, valWidth, 0)
}

// NewWithCapacity pre-sizes the table for n entries.
func NewWithCapacity(keyWidth, valWidth, n int) *Map {
	if keyWidth < 1 || valWidth < 0 {
		panic(fmt.Sprintf("wordmap: bad widths key=%d val=%d", keyWidth, valWidth))
	}
	m := &Map{keyW: keyWidth, valW: valWidth, stride: keyWidth + valWidth}
	if n > 0 {
		m.rehash(slotsFor(n))
		m.arena = make([]tuple.Value, 0, n*m.stride)
	}
	return m
}

// slotsFor returns the power-of-two slot count that keeps n entries under
// the ¾ load-factor ceiling.
func slotsFor(n int) int {
	c := 16
	for c*3 < n*4 {
		c *= 2
	}
	return c
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// MemWords reports the map's retained storage footprint in words: the
// arena's capacity plus the slot array (two uint32 references per word).
// Capacities, not lengths — a Reset map still holds its backing memory, and
// that is what a memory budget must account. O(1).
func (m *Map) MemWords() int64 {
	return int64(cap(m.arena)) + int64(cap(m.slots))/2
}

// Reset empties the map, keeping its arena and slot storage for reuse.
func (m *Map) Reset() {
	m.n = 0
	m.arena = m.arena[:0]
	clear(m.slots)
}

// hashWords mixes a key word by word: an FNV-style multiply-xor pass with a
// splitmix64 finalizer so that dense key spaces (sequential vertex ids)
// spread across slots instead of clustering the linear probe.
func hashWords(key []tuple.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range key {
		h ^= v
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// keyEqual compares a stored key against a probe key of the same width.
func keyEqual(a, b []tuple.Value) bool {
	for i, v := range a {
		if b[i] != v {
			return false
		}
	}
	return true
}

// Get returns the value words for key, or nil if absent. The returned slice
// aliases the arena (see the package comment for its lifetime); for
// valWidth 0 a present key yields a non-nil empty slice.
func (m *Map) Get(key []tuple.Value) []tuple.Value {
	if m.n == 0 {
		return nil
	}
	i := hashWords(key) & m.mask
	for {
		s := m.slots[i]
		if s == 0 {
			return nil
		}
		off := int(s-1) * m.stride
		if keyEqual(m.arena[off:off+m.keyW:off+m.keyW], key) {
			return m.arena[off+m.keyW : off+m.stride : off+m.stride]
		}
		i = (i + 1) & m.mask
	}
}

// Upsert locates key, inserting it with a zeroed value if absent, and
// returns the entry's value words plus whether an insertion happened. The
// value slice aliases the arena and may be written in place; it stays valid
// until the next Upsert or Reset.
func (m *Map) Upsert(key []tuple.Value) ([]tuple.Value, bool) {
	if len(key) != m.keyW {
		panic(fmt.Sprintf("wordmap: upsert key width %d, map key width %d", len(key), m.keyW))
	}
	if (m.n+1)*4 > len(m.slots)*3 {
		m.grow()
	}
	i := hashWords(key) & m.mask
	for {
		s := m.slots[i]
		if s == 0 {
			break
		}
		off := int(s-1) * m.stride
		if keyEqual(m.arena[off:off+m.keyW:off+m.keyW], key) {
			return m.arena[off+m.keyW : off+m.stride : off+m.stride], false
		}
		i = (i + 1) & m.mask
	}
	if m.n == int(^uint32(0))-1 {
		panic("wordmap: table full (2^32-1 entries)")
	}
	off := len(m.arena)
	m.arena = append(m.arena, key...)
	for j := 0; j < m.valW; j++ {
		m.arena = append(m.arena, 0)
	}
	m.n++
	m.slots[i] = uint32(m.n)
	return m.arena[off+m.keyW : off+m.stride : off+m.stride], true
}

// grow doubles the slot array (or seeds it) and re-seats every live entry.
// Entries are append-only, so no tombstone compaction is needed and arena
// offsets are untouched.
func (m *Map) grow() {
	c := 16
	if len(m.slots) > 0 {
		c = len(m.slots) * 2
	}
	m.rehash(c)
}

func (m *Map) rehash(capacity int) {
	m.slots = make([]uint32, capacity)
	m.mask = uint64(capacity - 1)
	m.reseat()
}

// reseat points the (empty) slot array at every live entry.
func (m *Map) reseat() {
	for e := 0; e < m.n; e++ {
		off := e * m.stride
		i := hashWords(m.arena[off:off+m.keyW]) & m.mask
		for m.slots[i] != 0 {
			i = (i + 1) & m.mask
		}
		m.slots[i] = uint32(e + 1)
	}
}

// Filter keeps the entries keep accepts and drops the rest, in place: the
// survivors slide down the arena in insertion order and the slot array, at
// its current size, is re-seated over them. It allocates nothing. Both
// slices alias the arena; keep must not Upsert into or Reset the map.
func (m *Map) Filter(keep func(key, val []tuple.Value) bool) {
	n := 0
	for e := 0; e < m.n; e++ {
		off := e * m.stride
		if !keep(m.arena[off:off+m.keyW:off+m.keyW], m.arena[off+m.keyW:off+m.stride:off+m.stride]) {
			continue
		}
		if n != e {
			copy(m.arena[n*m.stride:], m.arena[off:off+m.stride])
		}
		n++
	}
	m.n = n
	m.arena = m.arena[:n*m.stride]
	clear(m.slots)
	m.reseat()
}

// Each calls fn for every entry in insertion order until fn returns false.
// Both slices alias the arena; fn must not Upsert into or Reset the map.
func (m *Map) Each(fn func(key, val []tuple.Value) bool) {
	for e := 0; e < m.n; e++ {
		off := e * m.stride
		if !fn(m.arena[off:off+m.keyW:off+m.keyW],
			m.arena[off+m.keyW:off+m.stride:off+m.stride]) {
			return
		}
	}
}

// At returns entry e's key and value words in insertion order (0 ≤ e <
// Len). It is the index-based twin of Each for callers that interleave
// iteration with other work.
func (m *Map) At(e int) (key, val []tuple.Value) {
	off := e * m.stride
	return m.arena[off : off+m.keyW : off+m.keyW],
		m.arena[off+m.keyW : off+m.stride : off+m.stride]
}

// Words returns every entry whole — key words, then value words — one after
// another in insertion order, as one view under At's rules.
func (m *Map) Words() []tuple.Value { return m.arena }

// TamperValueWord XORs mask into one value word of a middle entry — the
// chaos harness's deterministic in-memory bit flip. It never touches key
// words, so the table's probing invariants stay intact while the stored
// state becomes silently wrong: exactly the fault the integrity digests
// must catch. It reports false when the map has no entries, no value
// words, or a zero mask.
func (m *Map) TamperValueWord(mask tuple.Value) bool {
	if m.n == 0 || m.valW == 0 || mask == 0 {
		return false
	}
	off := (m.n/2)*m.stride + m.keyW
	m.arena[off] ^= mask
	return true
}
