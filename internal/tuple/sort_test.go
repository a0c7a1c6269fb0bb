package tuple

import (
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
