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

// TestBaseShadowRule pins which relations get a base shadow: exactly those a
// rule derives into or that aggregate, never a base-only set relation such
// as edge, whose FULL already is its base-fact set. Shadows follow the
// program's relations in the checkpoint set, in the order of the relations
// they shadow, and are invisible to Relation and RelationNames.
func TestBaseShadowRule(t *testing.T) {
	for _, tc := range []struct {
		name     string
		prog     *core.Program
		shadowed []string
	}{
		{"sssp", queries.SSSPProgram(), []string{"spath"}},
		{"cc", queries.CCProgram(), []string{"cc"}},
		{"lsp", queries.LspProgram(), []string{"lsp", "spath", "spnorm"}},
		{"tc", queries.TCProgram(), []string{"path"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := mpi.NewWorld(1).Run(func(c *mpi.Comm) error {
				in, err := tc.prog.Instantiate(c, metrics.NewCollector(1), core.Config{Subs: 4})
				if err != nil {
					return err
				}
				rels := in.SnapshotRelations()
				n := len(rels) - len(tc.shadowed)
				if n < 0 {
					return fmt.Errorf("%d checkpoint relations, want at least %d shadows", len(rels), len(tc.shadowed))
				}
				for i, rel := range rels[:n] {
					if in.Relation(rel.Name) != rel {
						t.Errorf("checkpoint relation %d is %s, not a program relation", i, rel.Name)
					}
				}
				for i, sh := range rels[n:] {
					base := in.Relation(tc.shadowed[i])
					// A snapshot's first word is the relation's sub-bucket count.
					subs := sh.SnapshotWords()[0]
					if sh.Name != "__base."+tc.shadowed[i] || sh.Agg != nil || subs != 1 || sh.Arity != base.Arity {
						t.Errorf("shadow %d: %s (agg %v, subs %d, arity %d), want set __base.%s of arity %d, subs 1",
							i, sh.Name, sh.Agg, subs, sh.Arity, tc.shadowed[i], base.Arity)
					}
					if in.Relation(sh.Name) != nil || slices.Contains(tc.prog.RelationNames(), sh.Name) {
						t.Errorf("shadow %s is visible as a program relation", sh.Name)
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
