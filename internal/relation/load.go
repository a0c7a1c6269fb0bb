package relation

import "paralagg/internal/tuple"

// LoadFacts bulk-loads base facts through the normal materialization path:
// each rank contributes the slice of facts it "read" (canonical column
// order) and the pass routes, deduplicates/aggregates, and populates FULL
// and Δ so the first iteration sees the facts as freshly discovered.
// Loading is collective and unmetered (the paper's timings exclude input
// loading). A relation's first pass, if it is a load, decides its heavy join
// keys from the facts first (decideHeavy).
func (r *Relation) LoadFacts(facts *tuple.Buffer) uint64 {
	if facts != nil {
		r.decideHeavy(facts)
	}
	return r.Materialize(0, facts, false)
}

// LoadShare is a convenience for SPMD fact generation: emit is called with
// this rank's share of n facts — indices i with i % size == rank — and the
// produced tuples are loaded collectively. The generator must be
// deterministic so that every rank sees the same global fact set.
func (r *Relation) LoadShare(n int, gen func(i int, emit func(tuple.Tuple))) uint64 {
	buf := tuple.NewBuffer(r.Arity, n/r.comm.Size()+1)
	rank, size := r.comm.Rank(), r.comm.Size()
	for i := rank; i < n; i += size {
		gen(i, func(t tuple.Tuple) { buf.Append(t) })
	}
	return r.LoadFacts(buf)
}
