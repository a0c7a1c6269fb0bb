package tuple

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestSortedRunDedupsAndFlagsFirstArrivals(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, arity := range []int{1, 2, 3} {
		var words []Value
		for i := 0; i < 3000; i++ {
			for c := 0; c < arity; c++ {
				words = append(words, Value(rng.Intn(12)))
			}
		}
		n := len(words) / arity
		first := make([]bool, n)
		run := SortedRun(arity, words, first)

		// Reference: distinct tuples, sorted; first arrival of each flagged.
		seen := map[[3]Value]bool{}
		var want []Tuple
		for i := 0; i < n; i++ {
			var k [3]Value
			copy(k[:], words[i*arity:(i+1)*arity])
			if first[i] == seen[k] {
				t.Fatalf("arity %d: tuple %d flagged first=%v but seen before=%v", arity, i, first[i], seen[k])
			}
			if !seen[k] {
				seen[k] = true
				want = append(want, Tuple(words[i*arity:(i+1)*arity]))
			}
		}
		slices.SortFunc(want, func(a, b Tuple) int { return a.Compare(b) })
		if len(run) != len(want)*arity {
			t.Fatalf("arity %d: run holds %d tuples, want %d", arity, len(run)/arity, len(want))
		}
		for i, w := range want {
			if !w.Equal(Tuple(run[i*arity : (i+1)*arity])) {
				t.Fatalf("arity %d: run tuple %d = %v, want %v", arity, i, run[i*arity:(i+1)*arity], w)
			}
		}

		// A run is already ascending: it comes back as is, every tuple first.
		again := make([]bool, len(want))
		if got := SortedRun(arity, run, again); &got[0] != &run[0] || len(got) != len(run) {
			t.Fatalf("arity %d: an ascending input was copied", arity)
		}
		if slices.Contains(again, false) {
			t.Fatalf("arity %d: ascending input not flagged all-first", arity)
		}
	}
	if got := SortedRun(2, nil, nil); len(got) != 0 {
		t.Fatalf("empty input produced %v", got)
	}
}

// referenceOrder is the comparison sort SortedRun used before its radix
// sort: the tuple positions of words ordered by tuple, ties by position.
func referenceOrder(arity int, words []Value) []uint32 {
	at := func(i uint32) Tuple { return Tuple(words[int(i)*arity : (int(i)+1)*arity]) }
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

// referenceSortedRun is SortedRun as it was before the radix sort, the
// output the radix path must reproduce word for word.
func referenceSortedRun(arity int, words []Value) ([]Value, []bool) {
	at := func(i uint32) Tuple { return Tuple(words[int(i)*arity : (int(i)+1)*arity]) }
	perm := referenceOrder(arity, words)
	first := make([]bool, len(perm))
	run := []Value{}
	for k, i := range perm {
		if k > 0 && at(i).ComparePrefix(at(perm[k-1]), arity) == 0 {
			continue
		}
		first[i] = true
		run = append(run, at(i)...)
	}
	return run, first
}

// checkSortedRun compares SortedRun, and the radix sort on its own, with
// the comparison-sort reference on one batch.
func checkSortedRun(t *testing.T, arity int, words []Value) {
	t.Helper()
	n := len(words) / arity
	wantRun, wantFirst := referenceSortedRun(arity, words)
	first := make([]bool, n)
	run := SortedRun(arity, words, first)
	if !slices.Equal(run, wantRun) {
		t.Fatalf("arity %d, %d tuples: run differs from the comparison sort's\n got %v\nwant %v", arity, n, run, wantRun)
	}
	if !slices.Equal(first, wantFirst) {
		t.Fatalf("arity %d, %d tuples: first flags differ from the comparison sort's\n got %v\nwant %v", arity, n, first, wantFirst)
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = uint32(i)
	}
	if got, want := new(Sorter).radixSort(arity, words, perm), referenceOrder(arity, words); !slices.Equal(got, want) {
		t.Fatalf("arity %d, %d tuples: radix order %v, comparison order %v", arity, n, got, want)
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
		gen  func(i int) Value
	}{
		{"dup", func(i int) Value { return Value(rng.Intn(4)) }},
		{"top-byte", func(i int) Value { return Value(rng.Intn(256))<<56 | Value(rng.Intn(3)) }},
		{"one-byte", func(i int) Value { return 0x0707070707070707&^(0xff<<24) | Value(rng.Intn(256))<<24 }},
		{"ascending", func(i int) Value { return Value(i) }},
		{"descending", func(i int) Value { return Value(1<<40 - i) }},
		{"wide", func(i int) Value { return Value(rng.Uint64()) }},
	}
	for _, sh := range shapes {
		for arity := 1; arity <= 4; arity++ {
			for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 5000} {
				words := make([]Value, 0, n*arity)
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

// FuzzSortedRun checks SortedRun and the radix sort against the comparison
// sort on byte-coded batches. Byte 0 picks the arity (1–4). Byte 1 picks the
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
		fill := Value(0x0101010101010101) &^ (0xff << shift)
		var words []Value
		for data = data[2:]; len(data) > 0; {
			if wide && len(data) >= 8 {
				words = append(words, binary.LittleEndian.Uint64(data))
				data = data[8:]
				continue
			}
			words = append(words, fill|Value(data[0])<<shift)
			data = data[1:]
		}
		checkSortedRun(t, arity, words[:len(words)/arity*arity])
	})
}
