package core

import (
	"fmt"
	"sort"

	"paralagg/internal/lattice"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// ApplyInput carries one mutation batch into an instantiated program. The
// engine constructs it identically on every rank: the map key sets are the
// uniform signal of which relations mutate (a rank whose share of a batch
// is empty still passes an empty buffer under the key), while each buffer
// holds only this rank's share of the global batch.
type ApplyInput struct {
	// Inserts maps relation name → this rank's share of inserted base facts.
	Inserts map[string]*tuple.Buffer
	// Deletes maps relation name → this rank's share of deleted base facts.
	Deletes map[string]*tuple.Buffer
}

// ApplyStats reports what one mutation batch cost.
type ApplyStats struct {
	RunStats
	// InvalidationRounds counts the over-approximate invalidation rounds a
	// deletion batch ran (0 for insert-only batches).
	InvalidationRounds int
	// Dropped is the global number of tuples invalidated (base-fact seeds
	// plus cascaded head drops).
	Dropped uint64
	// Incremental reports whether the batch was maintained incrementally
	// (false = from-scratch fallback or initial load).
	Incremental bool
}

// Incrementalizable reports whether the program can be maintained
// incrementally under mutation: a single stratum whose aggregators are all
// idempotent. Multi-stratum programs leak converged-only tuples across the
// stratum boundary, and non-idempotent aggregates (MSum, MCount) double
// count when a seeded Δ re-delivers already-absorbed values — both fall
// back to re-deriving every derived relation from the base facts.
func (in *Instance) Incrementalizable() bool {
	if len(in.strata) != 1 {
		return false
	}
	for _, r := range in.rels {
		if r.Agg != nil && !lattice.Idempotent(r.Agg) {
			return false
		}
	}
	return true
}

// ApplyDelta applies one mutation batch to converged relations and re-runs
// the fixpoint to re-convergence. Collective; every rank passes an input
// with identical map-key sets.
//
// Inserts are the cheap monotone path: the new facts enter through the
// ordinary materialization (⊔-merging into the accumulators and seeding Δ
// with exactly what changed) and the stratum's fixpoint continues from that
// Δ — no reset, so re-convergence costs only the iterations the new facts
// actually cause. A batch that deletes changes the base facts exactly —
// inserts first, so a fact in both is deleted — in the shadows and the
// base-only relations, drops the deleted facts over-approximately from the
// shadowed relations, runs over-approximate invalidation (see
// ra.Invalidate) and re-derives from the surviving supports: each shadowed
// relation reloads its shadow's rank-local facts and the EDB Δ is re-seeded
// from FULL. Programs that are not Incrementalizable instead clear every
// derived relation, reload it from its shadow and re-run every stratum;
// base-only relations keep FULL and the run re-seeds their Δ.
func (in *Instance) ApplyDelta(cfg Config, inp ApplyInput) (ApplyStats, error) {
	for _, names := range [][]string{sortedKeys(inp.Inserts), sortedKeys(inp.Deletes)} {
		for _, n := range names {
			if in.rels[n] == nil {
				return ApplyStats{}, fmt.Errorf("core: mutation targets undeclared relation %s", n)
			}
		}
	}
	incremental := in.Incrementalizable()
	if incremental {
		in.enterStratum(0)
	}
	if incremental && len(inp.Deletes) == 0 {
		for _, n := range sortedKeys(inp.Inserts) {
			in.Load(n, inp.Inserts[n])
		}
		return in.rerun(cfg), nil
	}

	// A relation's Δ must not hold inserts while invalidation reads Δ as
	// drops, so each base set takes its share and clears Δ again.
	for _, n := range sortedKeys(inp.Inserts) {
		b := in.base(n)
		b.LoadFacts(inp.Inserts[n])
		b.ClearDelta()
	}
	rels := in.snapshotRels()
	for _, rel := range rels {
		rel.BeginDelete()
	}
	dropped, rounds := uint64(0), 0
	for _, n := range sortedKeys(inp.Deletes) {
		rel := in.rels[n]
		if b := in.base(n); b != rel {
			b.DeleteBatch(inp.Deletes[n])
			b.ClearDelta()
		}
		dropped += rel.DeleteBatch(inp.Deletes[n])
	}
	if !incremental {
		for _, rel := range in.derived {
			rel.Clear()
		}
		in.reloadShadowed()
		return ApplyStats{RunStats: in.Run(cfg)}, nil
	}
	st := in.strata[0]
	if dropped > 0 {
		var cascaded uint64
		rounds, cascaded = st.fix.Invalidate(in.options(cfg, 0))
		dropped += cascaded
	}
	for _, rel := range rels {
		rel.EndDelete()
	}
	// Re-derive: reload the shadowed relations from their post-batch base
	// facts and re-seed the EDB Δ from FULL so the first iteration
	// re-examines every pair with a surviving support.
	in.reloadShadowed()
	for _, input := range st.inputs {
		input.ResetDelta()
	}
	stats := in.rerun(cfg)
	stats.InvalidationRounds, stats.Dropped = rounds, dropped
	return stats, nil
}

// rerun continues the single stratum's fixpoint from the relations' current
// Δ and reports it as an incremental batch.
func (in *Instance) rerun(cfg Config) ApplyStats {
	n := in.strata[0].fix.Run(in.options(cfg, 0))
	return ApplyStats{RunStats: RunStats{StratumIters: []int{n}, TotalIters: n}, Incremental: true}
}

// base returns the relation holding name's base facts: its shadow, or the
// relation itself when it is a base-only set relation.
func (in *Instance) base(name string) *relation.Relation {
	if sh := in.shadows[name]; sh != nil {
		return sh
	}
	return in.rels[name]
}

// reloadShadowed feeds every shadowed relation its shadow's rank-local base
// facts, in name order. Collective; the materialization routes each fact
// to its owner in the shadowed relation's own placement.
func (in *Instance) reloadShadowed() {
	for _, n := range sortedKeys(in.shadows) {
		sh := in.shadows[n]
		in.rels[n].LoadFacts(&tuple.Buffer{Arity: sh.Arity, Words: sh.Canonical().Full.Serialize(sh.Arity)})
	}
}

// SnapshotRelations exposes the checkpoint relation set (every relation of
// the program in name order, then the base shadows) for engine-level
// snapshots.
func (in *Instance) SnapshotRelations() []*relation.Relation { return in.snapshotRels() }

// sortedKeys returns the map's keys in sorted order (the uniform iteration
// order collectives need).
func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
