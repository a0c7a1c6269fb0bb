package relation

// CatchUps reports how many times ix's FULL was rebuilt from the
// accumulator (Index.CatchUp).
func CatchUps(ix *Index) int { return ix.catchUps }
