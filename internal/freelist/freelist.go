// Package freelist is the bounded buffer free list both transports recycle
// message buffers through: received payload rows on a rank's mailbox,
// encoded frames on a TCP peer's outbox. It is a plain list, not a sync.Pool:
// a Pool may drop anything at any time (constantly, under the race detector),
// which would make the steady-state allocation pins flaky.
package freelist

import "math/bits"

// List holds idle slices binned by power-of-two capacity, so Get and Put are
// O(1) and a buffer taken for n elements always fits them. Limit bounds the
// capacity retained, in elements: a Put past it leaves the buffer to the
// collector. The zero value with Limit set is ready; the owner serializes
// access.
type List[T any] struct {
	Limit int
	held  int
	bins  [bits.UintSize][][]T
}

// Get returns a slice of length n and unspecified contents, reusing an idle
// buffer of n's size class when one is held. A fresh buffer gets the class's
// full capacity, so it serves every later request of the class.
func (l *List[T]) Get(n int) []T {
	if n <= 0 {
		return nil
	}
	b := bits.Len(uint(n - 1)) // smallest b with 1<<b >= n
	if idle := l.bins[b]; len(idle) > 0 {
		buf := idle[len(idle)-1]
		l.bins[b] = idle[:len(idle)-1]
		l.held -= cap(buf)
		return buf[:n]
	}
	return make([]T, n, 1<<b)
}

// Put hands buf back for reuse. The caller must hold the only reference:
// the next Get may return it to someone who overwrites it.
func (l *List[T]) Put(buf []T) {
	c := cap(buf)
	if c == 0 || l.held+c > l.Limit {
		return
	}
	b := bits.Len(uint(c)) - 1 // largest b with 1<<b <= c
	l.bins[b] = append(l.bins[b], buf[:0])
	l.held += c
}
