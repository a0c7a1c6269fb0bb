package relation

// CatchUps reports how many times ix's FULL was rebuilt from the
// accumulator (Index.CatchUp).
func CatchUps(ix *Index) int { return ix.catchUps }

// Stale reports whether ix's FULL lags the accumulator (Index.CatchUp).
func Stale(ix *Index) bool { return ix.stale }

// FrozenFull reports whether ix keeps FULL as a frozen run, not a B-tree
// (Index.pickStore).
func FrozenFull(ix *Index) bool { return ix.frozenFull }
