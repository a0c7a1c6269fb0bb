package paralagg

import "paralagg/internal/relation"

// SnapshotRelations hands the external tests a rank's checkpoint relation
// set — every relation of the program, in the order a checkpoint holds them.
func SnapshotRelations(rk *Rank) []*relation.Relation { return rk.inst.SnapshotRelations() }
