package ra

import (
	"paralagg/internal/metrics"
	"paralagg/internal/relation"
)

// This file implements the deletion half of incremental maintenance: the
// invalidation pass (DRed's over-deletion, Gupta, Mumick and Subrahmanian,
// SIGMOD 1993). Base-fact deletions are seeded into the affected relations'
// Δ (relation.DeleteBatch leaves exactly the dropped tuples there);
// Invalidate then chases dependents through the stratum's rules, handing
// every head candidate derived from a dropped support to DeleteBatch, until
// no head drops a tuple. A set head drops every candidate it holds. An
// aggregated head whose retraction is bounded (relation.BoundRetraction)
// drops a key only when the candidate attains its stored value — a
// strictly better value has support the retraction did not touch; any
// other aggregated head drops every key a candidate reaches. Either way a
// dropped tuple may still be derivable from surviving supports, which is
// sound because the caller re-runs the fixpoint afterwards with Δ seeded
// from the surviving supports of every dropped key, re-deriving everything
// the survivors still justify. Monotone convergence of the re-fixpoint
// then lands on exactly the least model of the post-deletion database.

// invalidationRule is implemented by kernels that can enumerate the head
// candidates derivable from dropped body tuples.
type invalidationRule interface {
	runInvalidation(iter int, mode PlanMode, mc *metrics.Collector, out *relation.Candidates)
}

// runInvalidation derives every head candidate with at least one dropped
// body tuple. Unlike the semi-naïve insert variants, Δ here holds tuples
// *removed from* FULL, so FULL∩Δ = ∅ and three variants are needed: Δ⋈FULL
// and FULL⋈Δ cover pairs with one dropped side, Δ⋈Δ covers pairs where both
// supports fell in the same round (the standard two variants would miss
// them because neither side is in FULL any more). Duplicate candidates
// across variants are harmless — DeleteBatch deduplicates at the owner.
func (j *Join) runInvalidation(iter int, mode PlanMode, mc *metrics.Collector, out *relation.Candidates) {
	lc := j.LeftRel.ChangedLast() > 0
	rc := j.RightRel.ChangedLast() > 0
	if lc {
		j.Run(iter, VDelta, VFull, mode, mc, out)
	}
	if rc {
		j.Run(iter, VFull, VDelta, mode, mc, out)
	}
	if lc && rc {
		j.Run(iter, VDelta, VDelta, mode, mc, out)
	}
}

// runInvalidation for copies: a dropped source tuple invalidates its
// projection in the head.
func (cp *Copy) runInvalidation(iter int, mode PlanMode, mc *metrics.Collector, out *relation.Candidates) {
	if cp.SrcRel.ChangedLast() > 0 {
		cp.Run(iter, mc, out)
	}
}

// Invalidate runs invalidation rounds until no relation drops a tuple,
// returning the number of rounds and the total tuples dropped (heads only —
// the caller already counted its base-fact seed drops). Collective. On
// entry the deleted base facts must have been seeded via DeleteBatch (their
// relations' Δ holds the drops and ChangedLast gates the variants); every
// relation of the stratum must be inside a BeginDelete/EndDelete bracket
// spanning the seed, this call, and the compaction, which records what it
// drops (relation.Dropped) and compacts an accumulator. On exit every
// relation's Δ is empty and its changed count is zero, ready for the
// caller's re-seeding.
func (f *Fixpoint) Invalidate(opts Options) (rounds int, dropped uint64) {
	iter := 0
	for {
		f.Comm.SetEpoch(iter)
		for _, h := range f.heads {
			f.cands[h].Begin(false) // DeleteBatch reads every candidate
		}
		for _, r := range f.Rules {
			if inv, ok := r.(invalidationRule); ok {
				inv.runInvalidation(iter, opts.Plan, f.MC, f.cands[r.HeadRel()])
			}
		}
		n := uint64(0)
		for _, h := range f.heads {
			n += h.DeleteBatch(&f.cands[h].Buffer)
		}
		// The seed Δ on body-only relations has been consumed once; clear it
		// so the next round only chases this round's head drops.
		for _, b := range f.bodyOnly {
			if b.ChangedLast() > 0 {
				b.ClearDelta()
			}
		}
		rounds++
		dropped += n
		iter++
		if n == 0 {
			return rounds, dropped
		}
	}
}
