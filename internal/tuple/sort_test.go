package tuple_test

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"paralagg/internal/btree"
	"paralagg/internal/tuple"
)

// referenceOrder is the comparison sort the radix sort replaced: the tuple
// positions of words ordered by tuple, ties by position.
func referenceOrder(arity int, words []tuple.Value) []uint32 {
	at := func(i uint32) tuple.Tuple { return tuple.Tuple(words[int(i)*arity : (int(i)+1)*arity]) }
	perm := make([]uint32, len(words)/arity)
	for i := range perm {
		perm[i] = uint32(i)
	}
	slices.SortFunc(perm, func(x, y uint32) int {
		if c := at(x).ComparePrefix(at(y), arity); c != 0 {
			return c
		}
		return cmp.Compare(x, y)
	})
	return perm
}

// checkSortedRun compares the sort every Δ run and every fill of FULL goes
// through with the comparison sort on one batch: Sorter.Order must be the
// stable ascending permutation, and btree.Run.Sort, which moves the tuples
// along it, must leave the distinct tuples in ascending order — and leave an
// ascending run as it is.
func checkSortedRun(t *testing.T, arity int, words []tuple.Value) {
	t.Helper()
	n := len(words) / arity
	order := referenceOrder(arity, words)
	var s tuple.Sorter
	if got := s.Order(arity, words); !slices.Equal(got, order) {
		t.Fatalf("arity %d, %d tuples: order %v, comparison order %v", arity, n, got, order)
	}
	var want []tuple.Value
	for k, i := range order {
		tup := words[int(i)*arity : (int(i)+1)*arity]
		if k == 0 || !slices.Equal(tup, want[len(want)-arity:]) {
			want = append(want, tup...)
		}
	}
	var run btree.Run
	run.Reset(arity)
	run.Append(words)
	for pass := 1; pass <= 2; pass++ {
		run.Sort(&s)
		if !slices.Equal(run.Words(), want) {
			t.Fatalf("arity %d, %d tuples, sort %d: run differs from the comparison sort's\n got %v\nwant %v",
				arity, n, pass, run.Words(), want)
		}
	}
}

// TestSortedRunMatchesComparisonSort runs both sorts over batch shapes that
// exercise the radix passes: heavy duplication, values in the top byte, one
// varying byte (every other pass skipped), input already ascending or
// descending, full 64-bit words, and sizes around the comparison cutoff.
func TestSortedRunMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	shapes := []struct {
		name string
		gen  func(i int) tuple.Value
	}{
		{"dup", func(i int) tuple.Value { return tuple.Value(rng.Intn(4)) }},
		{"top-byte", func(i int) tuple.Value { return tuple.Value(rng.Intn(256))<<56 | tuple.Value(rng.Intn(3)) }},
		{"one-byte", func(i int) tuple.Value { return 0x0707070707070707&^(0xff<<24) | tuple.Value(rng.Intn(256))<<24 }},
		{"ascending", func(i int) tuple.Value { return tuple.Value(i) }},
		{"descending", func(i int) tuple.Value { return tuple.Value(1<<40 - i) }},
		{"wide", func(i int) tuple.Value { return tuple.Value(rng.Uint64()) }},
	}
	for _, sh := range shapes {
		for arity := 1; arity <= 4; arity++ {
			for _, n := range []int{0, 1, 2, tuple.RadixMin - 1, tuple.RadixMin, tuple.RadixMin + 1, 5000} {
				words := make([]tuple.Value, 0, n*arity)
				for i := 0; i < n; i++ {
					for c := 0; c < arity; c++ {
						words = append(words, sh.gen(i))
					}
				}
				t.Run(fmt.Sprintf("%s/arity=%d/n=%d", sh.name, arity, n), func(t *testing.T) { checkSortedRun(t, arity, words) })
			}
		}
	}
}

// FuzzSortedRun checks Sorter.Order and the sorted run btree.Run.Sort makes
// against the comparison sort on byte-coded batches. Byte 0 picks the arity (1–4). Byte 1 picks the
// value coding: its low three bits name the one byte position a value
// varies in (every other byte holds a fixed non-zero pattern), and bit 3
// reads whole 8-byte little-endian values from the input instead, which
// reaches the top byte and full-width keys.
func FuzzSortedRun(f *testing.F) {
	f.Add([]byte{0, 0})
	f.Add([]byte{1, 0, 5})
	f.Add([]byte{1, 7, 3, 1, 3, 1, 0, 2, 255, 0, 3, 1})
	f.Add([]byte{2, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 8, 1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 0, 0, 0, 0, 255})
	rng := rand.New(rand.NewSource(1))
	for coding := byte(0); coding < 16; coding += 5 {
		data := make([]byte, 2+600)
		rng.Read(data)
		data[0], data[1] = coding%4, coding
		for i := 2; i < len(data) && coding < 8; i++ {
			data[i] %= 5 // heavy duplication
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		arity := 1 + int(data[0]%4)
		shift := 8 * uint(data[1]%8)
		wide := data[1]&8 != 0
		fill := tuple.Value(0x0101010101010101) &^ (0xff << shift)
		var words []tuple.Value
		for data = data[2:]; len(data) > 0; {
			if wide && len(data) >= 8 {
				words = append(words, binary.LittleEndian.Uint64(data))
				data = data[8:]
				continue
			}
			words = append(words, fill|tuple.Value(data[0])<<shift)
			data = data[1:]
		}
		checkSortedRun(t, arity, words[:len(words)/arity*arity])
	})
}
