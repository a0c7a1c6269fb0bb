package core_test

import (
	"fmt"
	"slices"
	"testing"

	"paralagg/internal/core"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/queries"
)

// TestRegisteredIndexes pins which indexes compilation registers. A set
// relation always has its canonical index first, where deduplication
// happens. An aggregated relation holds only the indexes some kernel reads:
// SSSP's spath exactly the join index it is placed on, with nothing
// replicated, and the canonical index only where a later stratum's Copy
// reads it in canonical order. An aggregated relation nothing reads has
// none.
func TestRegisteredIndexes(t *testing.T) {
	canon2, canon3, byMid := []int{0, 1}, []int{0, 1, 2}, []int{1, 0, 2}
	for _, tc := range []struct {
		name string
		prog *core.Program
		agg  map[string][][]int // every registered index's permutation, in order
	}{
		{"sssp", queries.SSSPProgram(), map[string][][]int{"spath": {byMid}}},
		{"lsp", queries.LspProgram(), map[string][][]int{"spath": {byMid, canon3}, "lsp": nil}},
		{"stratified-sssp", queries.StratifiedSSSPProgram(100), map[string][][]int{"spath": nil}},
		// cc is joined on its key in canonical order: that index is both.
		{"cc", queries.CCProgram(), map[string][][]int{"cc": {canon2}}},
		{"tc", queries.TCProgram(), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
				in, err := tc.prog.Instantiate(c, metrics.NewCollector(2), core.Config{Subs: 1})
				if err != nil {
					return err
				}
				for _, name := range tc.prog.RelationNames() {
					rel := in.Relation(name)
					if rel.Agg == nil {
						if ix := rel.Canonical(); ix == nil || rel.Indexes()[0] != ix {
							return fmt.Errorf("set relation %s: index 0 is not its canonical index", name)
						}
						continue
					}
					want, ok := tc.agg[name]
					if !ok {
						continue
					}
					var perms [][]int
					for _, ix := range rel.Indexes() {
						perms = append(perms, ix.Perm)
					}
					if !slices.EqualFunc(perms, want, slices.Equal) {
						return fmt.Errorf("%s registers indexes %v, want %v", name, perms, want)
					}
					if rel.Replicated() {
						return fmt.Errorf("%s keeps a replica exchange", name)
					}
					hasCanon := slices.ContainsFunc(want, func(p []int) bool { return slices.Equal(p, canon3) || slices.Equal(p, canon2) })
					if got := rel.Canonical(); (got != nil) != hasCanon || (got != nil && got.JK != rel.Key) {
						return fmt.Errorf("%s: canonical index %v, want one: %v", name, got, hasCanon)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
