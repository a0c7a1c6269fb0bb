package relation_test

import (
	"fmt"
	"testing"

	"paralagg/internal/core"
	"paralagg/internal/graph"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// allFrozen reports the first index of in's relations, the base shadows
// included, whose FULL is not a frozen run.
func allFrozen(in *core.Instance) error {
	for _, rel := range in.SnapshotRelations() {
		for _, ix := range rel.Indexes() {
			if !relation.FrozenFull(ix) {
				return fmt.Errorf("relation %s index %v keeps FULL in a B-tree", rel.Name, ix.Perm)
			}
		}
	}
	return nil
}

// TestSSSPKeepsEveryFullFrozen pins that SSSP, the program every benchmark
// workload runs, builds no B-tree: after a one-shot fixpoint at Subs 1, 4
// and 8, and after a serving insert and delete of four shortcuts on a 32×32
// grid at Subs 4, every index of every relation holds a frozen FULL — edge
// and the __base.spath shadow as base relations, spath's one index as the
// cache of its accumulator.
func TestSSSPKeepsEveryFullFrozen(t *testing.T) {
	for _, subs := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("one-shot/subs=%d", subs), func(t *testing.T) {
			g := graph.Grid("grid", 6, 40, 8, 3)
			err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
				cfg := core.Config{Subs: subs}
				in, err := loadSSSP(c, g, cfg)
				if err != nil {
					return err
				}
				in.Run(cfg)
				return allFrozen(in)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("serving/subs=4", func(t *testing.T) {
		g := graph.Grid("serve", 32, 32, 8, 7)
		err := mpi.NewWorld(2).Run(func(c *mpi.Comm) error {
			cfg := core.Config{Subs: 4}
			in, err := loadSSSP(c, g, cfg)
			if err != nil {
				return err
			}
			in.Run(cfg)
			// Shortcuts 500 nodes apart join nodes no grid edge joins.
			shortcuts := tuple.NewBuffer(3, 4)
			for i := c.Rank(); i < 4; i += c.Size() {
				u := tuple.Value(i * 37)
				shortcuts.Append(tuple.Tuple{u, (u + 500) % tuple.Value(g.Nodes), 1})
			}
			edges := map[string]*tuple.Buffer{"edge": shortcuts}
			for _, inp := range []core.ApplyInput{{Inserts: edges}, {Deletes: edges}} {
				st, err := in.ApplyDelta(cfg, inp)
				if err != nil {
					return err
				}
				if !st.Incremental {
					return fmt.Errorf("the batch was not maintained incrementally")
				}
			}
			if err := allFrozen(in); err != nil {
				return err
			}
			return in.Relation("spath").CheckInvariants()
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
