package tuple

import (
	"fmt"
	"slices"
)

// Buffer is the flat wire representation of a batch of same-arity tuples.
// The message-passing layer only moves word slices, mirroring MPI's
// requirement that nested structures be serialized into 1-D buffers before
// transmission. A Buffer's length is always a multiple of its arity.
type Buffer struct {
	Arity int
	Words []Value
}

// NewBuffer returns an empty buffer for tuples of the given arity with
// capacity for n tuples.
func NewBuffer(arity, n int) *Buffer {
	return &Buffer{Arity: arity, Words: make([]Value, 0, arity*n)}
}

// Append serializes t onto the buffer. It panics if t's arity differs from
// the buffer's, which indicates a kernel bug.
func (b *Buffer) Append(t Tuple) {
	if len(t) != b.Arity {
		panic(fmt.Sprintf("tuple: append arity %d to buffer of arity %d", len(t), b.Arity))
	}
	b.Words = append(b.Words, t...)
}

// Extend appends one tuple's worth of words, contents unspecified, and
// returns them as a view for the caller to fill in place — an Append
// without a tuple to copy from.
func (b *Buffer) Extend() Tuple {
	n := len(b.Words)
	b.Words = slices.Grow(b.Words, b.Arity)[:n+b.Arity]
	return Tuple(b.Words[n : n+b.Arity : n+b.Arity])
}

// DropLast removes the most recently appended tuple.
func (b *Buffer) DropLast() { b.Words = b.Words[:len(b.Words)-b.Arity] }

// Len returns the number of tuples currently in the buffer.
func (b *Buffer) Len() int {
	if b.Arity == 0 {
		return 0
	}
	return len(b.Words) / b.Arity
}

// Bytes returns the buffer's size on the wire in bytes (8 bytes per word).
func (b *Buffer) Bytes() int { return len(b.Words) * 8 }

// At returns the i-th tuple as a view into the buffer. The returned slice
// aliases the buffer; callers that retain it must Clone.
func (b *Buffer) At(i int) Tuple {
	return Tuple(b.Words[i*b.Arity : (i+1)*b.Arity])
}

// Each calls fn for every tuple in the buffer, in order. The tuple passed to
// fn aliases the buffer and must not be retained without cloning.
func (b *Buffer) Each(fn func(Tuple)) {
	for i, n := 0, b.Len(); i < n; i++ {
		fn(b.At(i))
	}
}

// Reset truncates the buffer for reuse, keeping its backing storage.
func (b *Buffer) Reset() { b.Words = b.Words[:0] }

// Decode splits a raw word slice received off the wire back into a buffer of
// the given arity. It returns an error if the slice length is not a multiple
// of the arity, which indicates corruption or an arity mismatch between
// sender and receiver.
func Decode(arity int, words []Value) (*Buffer, error) {
	if arity <= 0 {
		return nil, fmt.Errorf("tuple: decode with non-positive arity %d", arity)
	}
	if len(words)%arity != 0 {
		return nil, fmt.Errorf("tuple: decode %d words with arity %d", len(words), arity)
	}
	return &Buffer{Arity: arity, Words: words}, nil
}
