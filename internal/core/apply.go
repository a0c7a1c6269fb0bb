package core

import (
	"fmt"
	"slices"
	"sort"

	"paralagg/internal/lattice"
	"paralagg/internal/mpi"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
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
	// InvalidationRounds counts the invalidation rounds a deletion batch
	// ran (0 for insert-only batches): rounds of chasing retracted
	// derivations, bounded by the lattice where the program allows it.
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
// base-only relations, drops the deleted facts from the shadowed relations,
// runs invalidation (see ra.Invalidate) and re-derives the dropped keys
// from their surviving supports: each shadowed relation reloads its
// shadow's rank-local facts and reseed puts into Δ the FULL tuples that can
// derive a dropped key, derived relations included. Where the stratum's
// rules bound it (boundsRetraction), a key is dropped only by a retracted
// derivation that attains its value. Programs that are not
// Incrementalizable instead clear every derived relation, reload it from
// its shadow and re-run every stratum; base-only relations keep FULL and
// the run re-seeds their Δ.
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
		rel, facts := in.rels[n], inp.Deletes[n]
		if b := in.base(n); b != rel {
			// Only what the shadow held was a base fact; a derived tuple
			// named here stays, as Mutation.Delete promises.
			b.DeleteBatch(facts)
			b.ClearDelta()
			facts = &tuple.Buffer{Arity: b.Arity, Words: b.Dropped()}
		}
		dropped += rel.DeleteBatch(facts)
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
	// facts, then seed Δ with the surviving supports of the dropped keys.
	in.reloadShadowed()
	in.reseed(st, inp.Inserts)
	stats := in.rerun(cfg)
	stats.InvalidationRounds, stats.Dropped = rounds, dropped
	return stats, nil
}

// reseed seeds the re-derivation after a delete's invalidation: Δ of every
// relation the stratum reads gains the FULL tuples that can derive a key
// some head dropped, on top of what the reload left there. One
// AllgatherWords hands every rank every dropped head key. A rule whose head
// dropped keys seeds the body atom that feeds one of its head key columns —
// of those columns, the one with the most distinct dropped values — with
// the tuples holding one of those values there. A rule with no such column
// seeds its first atom's whole FULL, and so does a base-only input that
// took inserts in the batch: they sit in FULL with Δ cleared. Collective.
func (in *Instance) reseed(st *stratum, inserts map[string]*tuple.Buffer) {
	p := in.planReseed(st)
	mine := p.mine[:0]
	for _, h := range p.heads {
		words := h.Dropped()
		mine = append(mine, mpi.Word(len(words)/h.Arity))
		for ; len(words) > 0; words = words[h.Arity:] {
			mine = append(mine, words[:h.Indep]...)
		}
	}
	p.mine = mine
	for _, vs := range p.dropped {
		for _, v := range vs {
			v.Reset()
		}
	}
	for all := in.comm.AllgatherWords(mine); len(all) > 0; { // one rank's section at a time
		for i, h := range p.heads {
			n := int(all[0])
			for all = all[1:]; n > 0; n, all = n-1, all[h.Indep:] {
				for j, vs := range p.dropped[i] {
					vs.Upsert(all[j : j+1])
				}
			}
		}
	}
	full := map[*relation.Relation]bool{}
	filters := map[*relation.Relation][]relation.Filter{}
	for _, r := range p.rules {
		vs := p.dropped[r.head]
		if vs[0].Len() == 0 {
			continue // the head dropped nothing
		}
		best := -1
		for j, f := range r.feeds {
			if f.atom >= 0 && (best < 0 || vs[j].Len() > vs[best].Len()) {
				best = j
			}
		}
		if best < 0 {
			full[r.bodies[0]] = true
			continue
		}
		f := r.feeds[best]
		filters[r.bodies[f.atom]] = append(filters[r.bodies[f.atom]], relation.Filter{Col: f.col, Values: vs[best]})
	}
	for _, rel := range st.inputs {
		if _, ok := inserts[rel.Name]; ok {
			full[rel] = true
		}
	}
	for _, rel := range p.reads {
		switch {
		case full[rel]:
			rel.ResetDelta()
		case filters[rel] != nil:
			rel.SeedDelta(filters[rel])
		}
	}
}

// planReseed returns the stratum's seedPlan, planning it from the rules on
// the first call: the heads in rule order, each rule's body relations and
// key feeds (keyFeeds), every relation the rules read, and the scratch.
// Planning on the first delete keeps it off every program that never
// deletes. Rank-local.
func (in *Instance) planReseed(st *stratum) *seedPlan {
	if st.plan != nil {
		return st.plan
	}
	p := &seedPlan{}
	bodies := map[string]bool{}
	for _, r := range st.rules {
		head := in.rels[r.Head.Rel]
		h := slices.Index(p.heads, head)
		if h < 0 {
			h = len(p.heads)
			p.heads = append(p.heads, head)
		}
		sr := seedRule{head: h, feeds: keyFeeds(r, head.Indep)}
		for _, a := range r.Body {
			bodies[a.Rel] = true
			sr.bodies = append(sr.bodies, in.rels[a.Rel])
		}
		p.rules = append(p.rules, sr)
	}
	for _, n := range sortedKeys(bodies) {
		p.reads = append(p.reads, in.rels[n])
	}
	p.dropped = make([][]*wordmap.Map, len(p.heads))
	for i, h := range p.heads {
		p.dropped[i] = make([]*wordmap.Map, h.Indep)
		for j := range p.dropped[i] {
			p.dropped[i][j] = wordmap.New(1, 0)
		}
	}
	st.plan = p
	return p
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
		in.rels[n].LoadFacts(&tuple.Buffer{Arity: sh.Arity, Words: sh.Canonical().Full().Words()})
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
