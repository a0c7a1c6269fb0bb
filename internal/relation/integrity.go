package relation

import (
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
)

// Online divergence detection (Config.Integrity). Each Materialize
// fingerprints this rank's shard with order-independent 64-bit digests and
// agrees them in one AllreduceVec, a round of its own because the digests
// cover the indexes after the pass. They cover the reference store — the
// accumulator of an aggregated relation, the canonical tree of a set
// relation — and every registered index. The digests are sums of per-tuple
// hashes, which makes them independent of
// storage order AND of placement: the global sum over ranks is a property
// of the logical relation, so it survives elastic restarts.
//
// Three invariants are checked on the agreed global sums each iteration:
//
//   replica:  Σ over every index's FULL  ==  nIndexes × reference
//             (every index's FULL stores the same global relation the
//             reference store does; a flipped word in any one copy breaks
//             the equality). A local index's stale FULL is no state — its
//             next read rebuilds it from the accumulator — so it counts as
//             the accumulator, and the drift check below covers it.
//   delta:    Σ over every index's Δ run   ==  nIndexes × Σ fresh tuples
//             (each changed tuple reached every replica exactly once; a Δ
//             that is a view of FULL after a bulk load counts as FULL)
//   history:  full_t == full_{t-1} + Δ_t for set-semantics relations
//             (FULL only ever grows by exactly the deduplicated fresh
//             tuples — this is what catches corruption of the canonical
//             tree itself, which the replica check cannot see when the
//             corrupt copy is the reference)
//   drift:    Σ over ranks of (recomputed acc digest − running acc digest)
//             == 0 for aggregated relations. The running digest is
//             maintained ONLY by the merge path, so a word flipped directly
//             in the accumulator arena drifts — even when a later lattice
//             merge overwrites the flipped value in the same iteration and
//             leaves the replicas consistent-but-wrong. Both global sums
//             are placement-independent, so the invariant survives
//             sub-bucket redistribution without re-seeding.
//
// CRC32C on the wire (PR 2) protects tuples in flight; these digests
// protect them at rest. What none can catch is a wrong-but-consistent
// lattice value produced before the tuple was ever hashed.

// digestSeed starts every per-tuple hash stream.
const digestSeed = 0x9e3779b97f4a7c15

// digestWord folds one word into a running splitmix64-style stream.
func digestWord(h, v uint64) uint64 {
	h ^= v
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// digestWords folds ws into a running splitmix64-style stream; column
// order matters (tuple (1,2) ≠ tuple (2,1)) but the per-tuple results are
// summed, so the multiset digest is storage-order-independent.
func digestWords(h uint64, ws []tuple.Value) uint64 {
	for _, v := range ws {
		h = digestWord(h, uint64(v))
	}
	return h
}

// digestTuple hashes one canonical-order tuple.
func digestTuple(t tuple.Tuple) uint64 { return digestWords(digestSeed, t) }

// digestInv returns the inverse storage permutation for digesting (canonical
// column c lives at stored position inv[c]), or nil when the permutation is
// the identity and stored order IS canonical order. Computed once per index.
func (ix *Index) digestInv() []int {
	if !ix.digInvDone {
		ix.digInvDone = true
		identity := true
		for i, c := range ix.Perm {
			if i != c {
				identity = false
				break
			}
		}
		if !identity {
			inv := make([]int, len(ix.Perm))
			for i, c := range ix.Perm {
				inv[c] = i
			}
			ix.digInv = inv
		}
	}
	return ix.digInv
}

// digest sums per-tuple digests of v's stored tuples mapped back to
// canonical column order through the inverse index permutation — no
// intermediate copy — so every replica of the same logical tuple contributes
// the same value regardless of its storage permutation. This walk is the
// integrity layer's hot loop: it re-reads every stored word each iteration,
// which is exactly what makes at-rest rot detectable.
func (ix *Index) digest(v View) uint64 {
	var sum uint64
	inv := ix.digestInv()
	if inv == nil {
		v.Ascend(func(stored tuple.Tuple) bool {
			sum += digestTuple(stored)
			return true
		})
		return sum
	}
	v.Ascend(func(stored tuple.Tuple) bool {
		h := uint64(digestSeed)
		for _, p := range inv {
			h = digestWord(h, uint64(stored[p]))
		}
		sum += h
		return true
	})
	return sum
}

// digestAcc sums per-entry digests of the aggregate accumulator as
// canonical tuples (independent key followed by dependent value).
func (r *Relation) digestAcc() uint64 {
	var sum uint64
	r.acc.Each(func(indep, dep []tuple.Value) bool {
		sum += digestWords(digestWords(digestSeed, indep), dep)
		return true
	})
	return sum
}

// digestBuffer sums per-tuple digests of a canonical-order tuple buffer.
func digestBuffer(b *tuple.Buffer) uint64 {
	var sum uint64
	for i, n := 0, b.Len(); i < n; i++ {
		sum += digestTuple(b.At(i))
	}
	return sum
}

// integrityLocal fills vec with this rank's digest contributions and
// returns the number of tuples hashed: [0] the reference store (acc for
// aggregated relations, the canonical tree otherwise), [1] Σ over every
// index FULL tree, the accumulator standing in for a stale one, [2] Σ over
// every index Δ, [3] this pass's fresh tuples, [4] the accumulator drift
// (recomputed minus running digest; always 0 for set relations).
func (r *Relation) integrityLocal(fresh *tuple.Buffer, vec []mpi.Word) int64 {
	var ref, fullSum, deltaSum uint64
	work := int64(0)
	if r.Agg != nil {
		ref = r.digestAcc()
		work += int64(r.acc.Len())
	}
	for i, ix := range r.indexes {
		fd := ref
		if ix.stale {
			work += int64(r.acc.Len())
		} else {
			fd = ix.digest(ix.fullView())
			work += int64(ix.fullView().Len())
		}
		fullSum += fd
		delta := ix.Delta()
		deltaSum += ix.digest(delta)
		work += int64(delta.Len())
		if i == 0 && r.Agg == nil {
			ref = fd
		}
	}
	vec[4] = 0
	if r.Agg != nil {
		if !r.accDigValid {
			// First iteration, or the accumulator was legitimately rebuilt
			// (restore): adopt the recomputed digest as the running baseline.
			r.accDig = ref
			r.accDigValid = true
		}
		vec[4] = ref - r.accDig
	}
	vec[0] = ref
	vec[1] = fullSum
	vec[2] = deltaSum
	if fresh != nil {
		vec[3] = digestBuffer(fresh)
		work += int64(fresh.Len())
	} else {
		vec[3] = 0
	}
	return work
}

// integrityAllreduce agrees on a 5-word OpSum vector carrying [reference,
// ΣFULL, ΣΔ, Σfresh, accDrift] and verifies the agreed sums. The digests
// cover the indexes after the pass, so this is a round of its own rather
// than a ride on the next routing exchange's lane headers. The fingerprint
// computation is metered as PhaseIntegrity.
func (r *Relation) integrityAllreduce(iter int, fresh *tuple.Buffer, record bool) {
	if r.digVec == nil {
		r.digVec = make([]mpi.Word, 5)
		r.digVecOut = make([]mpi.Word, 5)
	}
	timer := metrics.StartTimer()
	work := r.integrityLocal(fresh, r.digVec)
	if record {
		r.mc.Record(r.comm.Rank(), iter, metrics.PhaseIntegrity, timer.Done(work, 0, 0))
	}
	r.verifyIntegrity(iter, r.comm.AllreduceVec(r.digVec, r.digVecOut, mpi.OpSum))
}

// verifyIntegrity checks the invariants on the agreed global sums. Every
// rank holds the identical vector, so a violation raises the same
// divergence on every rank in the same iteration. Leaky (baseline-mode)
// relations skip the replica and delta equalities, mirroring the offline
// invariant checker: their never-purged stale tuples make replica counts
// intentionally loose.
func (r *Relation) verifyIntegrity(iter int, g []mpi.Word) {
	nIdx := uint64(len(r.indexes))
	ref, fullSum, deltaSum, freshDig := g[0], g[1], g[2], g[3]
	if r.leaky == nil {
		if fullSum != nIdx*ref {
			r.diverge(iter, "replica")
		}
		if deltaSum != nIdx*freshDig {
			r.diverge(iter, "delta")
		}
	}
	if g[4] != 0 {
		// The accumulator arena changed outside the merge path on some rank
		// (the per-rank drifts are placement-independent, so legitimate
		// redistribution cancels in the global sum).
		r.diverge(iter, "accumulator")
	}
	if r.Agg == nil {
		if r.digPrevValid && ref != r.digPrev+freshDig {
			r.diverge(iter, "history")
		}
		// Adopt (or re-adopt, after a restore invalidated it) the agreed
		// digest as the next iteration's baseline.
		r.digPrev = ref
		r.digPrevValid = true
	}
}

// diverge raises the structured divergence failure on this rank. All ranks
// verified the same agreed vector, so all raise it together and the world
// unwinds with every rank carrying mpi.ErrStateDiverged.
func (r *Relation) diverge(iter int, check string) {
	rank := r.comm.Rank()
	panic(&mpi.ErrRankFailed{
		Rank: rank, Op: "integrity", Iter: iter,
		Cause: &mpi.ErrStateDiverged{Iter: iter, Rel: r.Name, Rank: rank, Check: check},
	})
}

// invalidateDigestBaseline drops the running history and accumulator
// baselines. Called whenever the shard is rebuilt outside Materialize
// (checkpoint restore, elastic remap): the next agreed digest
// re-establishes them, so the first post-restore iteration checks replica
// and delta invariants only.
func (r *Relation) invalidateDigestBaseline() {
	r.digPrevValid = false
	r.accDigValid = false
}

// TamperState deterministically flips one stored word of this rank's shard
// — the chaos harness's in-memory corruption fault. Aggregated relations
// flip a dependent-value word of a middle accumulator entry (caught by the
// drift invariant even when a same-iteration merge overwrites it); when
// this rank owns no accumulator entries they flip the leading stored word
// of the first tuple of the first registered index that holds one, which
// the in-place update can never heal (it looks up the original key prefix),
// so the replica invariant catches it. Set relations flip the last word of
// the first canonical-tree tuple. Reports false when the shard is empty.
func (r *Relation) TamperState(mask mpi.Word) bool {
	if r.Agg != nil {
		if r.acc.TamperValueWord(mask) {
			return true
		}
		done := false
		for _, ix := range r.indexes {
			ix.Full().Ascend(func(t tuple.Tuple) bool {
				t[0] ^= mask
				done = true
				return false
			})
			if done {
				break
			}
		}
		return done
	}
	done := false
	r.indexes[0].Full().Ascend(func(t tuple.Tuple) bool {
		t[len(t)-1] ^= mask
		done = true
		return false
	})
	return done
}
