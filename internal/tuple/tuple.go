// Package tuple provides the fixed-arity tuple representation used by all
// relational kernels, together with hashing and a flat buffer codec.
//
// A tuple is a slice of 64-bit column values. Relations in this system have
// a fixed arity, and within a relation the first k columns are the "index"
// (join) columns used for bucket placement; the remaining columns either
// complete the set-semantics key or, for aggregated relations, hold the
// dependent (aggregated) value.
package tuple

import (
	"fmt"
	"strings"
)

// Value is a single column value. All columns are 64-bit words; callers
// encode vertex ids, path lengths, counts, or fixed-point numerics as
// needed. It is an alias (not a defined type) so that tuple buffers are
// interchangeable with the raw word slices moved by the message-passing
// substrate.
type Value = uint64

// Tuple is one row of a relation. Tuples are value slices and are never
// aliased across relations: storage layers copy on insert.
type Tuple []Value

// Clone returns a copy of t that shares no storage with it.
func (t Tuple) Clone() Tuple {
	c := make(Tuple, len(t))
	copy(c, t)
	return c
}

// Equal reports whether t and u have the same arity and the same value in
// every column.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i, v := range t {
		if u[i] != v {
			return false
		}
	}
	return true
}

// Compare orders tuples lexicographically column by column. It returns a
// negative number if t < u, zero if they are equal, and a positive number if
// t > u. Shorter tuples order before longer ones when they share a prefix.
func (t Tuple) Compare(u Tuple) int {
	n := len(t)
	if len(u) < n {
		n = len(u)
	}
	for i := 0; i < n; i++ {
		switch {
		case t[i] < u[i]:
			return -1
		case t[i] > u[i]:
			return 1
		}
	}
	switch {
	case len(t) < len(u):
		return -1
	case len(t) > len(u):
		return 1
	}
	return 0
}

// ComparePrefix orders t against u considering only the first k columns of
// each. Both tuples must have at least k columns.
func (t Tuple) ComparePrefix(u Tuple, k int) int {
	for i := 0; i < k; i++ {
		switch {
		case t[i] < u[i]:
			return -1
		case t[i] > u[i]:
			return 1
		}
	}
	return 0
}

// String renders the tuple as "(v0, v1, ...)" for diagnostics.
func (t Tuple) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", uint64(v))
	}
	b.WriteByte(')')
	return b.String()
}

// Project returns a new tuple holding t's columns at the given positions, in
// order. It panics if any position is out of range, which indicates a plan
// compilation bug rather than a data error.
func (t Tuple) Project(cols []int) Tuple {
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

const (
	// fnvOffset and fnvPrime are the 64-bit FNV-1a parameters.
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// HashPrefix hashes the first k columns of t with 64-bit FNV-1a, mixing each
// column byte by byte. The same function is used for bucket placement on
// every rank so that tuples with equal join columns always meet.
func (t Tuple) HashPrefix(k int) uint64 {
	var h uint64 = fnvOffset
	for i := 0; i < k; i++ {
		v := uint64(t[i])
		for b := 0; b < 8; b++ {
			h ^= v & 0xff
			h *= fnvPrime
			v >>= 8
		}
	}
	return mix(h)
}

// Hash hashes the entire tuple.
func (t Tuple) Hash() uint64 { return t.HashPrefix(len(t)) }

// mix applies a 64-bit finalizer (splitmix64's) so that sequential keys do
// not land in sequential buckets.
func mix(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
