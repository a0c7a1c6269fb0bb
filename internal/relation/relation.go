// Package relation implements distributed relations with the paper's
// bucket/sub-bucket double-hashed decomposition, semi-naïve FULL/Δ
// versioning, and — for aggregated relations — the fused
// deduplication/local-aggregation pass that is the core contribution of
// the paper (§III-A, §IV-A).
//
// A relation is an SPMD object: every rank constructs it with identical
// parameters and holds the shard of tuples the placement function assigns
// to it. Set-semantics relations store tuples in indexes, the canonical one
// first; an aggregated relation holds each key once, in an accumulator map
// from independent columns to the lattice-joined dependent value, placed by
// hashing the independent columns only — which is what makes local
// aggregation communication-free (dependent columns never influence
// placement) — plus only the indexes some kernel reads. PlaceOn puts the
// accumulator and indexes on one rank per (bucket, sub-bucket). Only a heavy
// join key spreads over a bucket's sub-buckets; every other key lives at
// sub-bucket 0 (heavy.go).
//
// Every index keeps only the storage something reads. Its Δ is a sorted run
// (btree.Run) of the tuples the last pass changed, written once and then
// only scanned and binary-searched — or, after a bulk load or ResetDelta,
// FULL itself. A pass or a delete reaches every index the same way
// (Index.apply): the tuples are copied into Δ's run and sorted once, and FULL
// takes the run whole — filled from it when empty, else merging it in or
// filtering it out, which leaves in Δ only what changed FULL. FULL is a
// btree.Frozen run or a B-tree (Index.pickStore); both take the same batches.
// An aggregated relation's local index (the canonical or PlaceOn index,
// which lives with the accumulator) caches the accumulator in FULL: a pass
// or a delete only marks it stale, and its first reader rebuilds it in one
// sort (CatchUp).
package relation

import (
	"fmt"

	"paralagg/internal/btree"
	"paralagg/internal/lattice"
	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// Schema declares a relation's shape. For set-semantics relations Indep ==
// Arity and Agg is nil. For aggregated relations the first Indep columns are
// independent (they key the accumulator) and the remaining Agg.Width()
// columns hold the dependent value.
type Schema struct {
	Name  string
	Arity int
	// Indep is the number of leading independent columns.
	Indep int
	// Key is the number of leading columns forming the canonical index key
	// (the relation's default join columns). Key <= Indep.
	Key int
	// Agg is the recursive aggregator for the dependent columns, or nil for
	// set semantics.
	Agg lattice.Aggregator
}

// Dep returns the number of dependent columns.
func (s Schema) Dep() int { return s.Arity - s.Indep }

// Validate checks internal consistency.
func (s Schema) Validate() error {
	if s.Arity <= 0 {
		return fmt.Errorf("relation %s: arity %d", s.Name, s.Arity)
	}
	if s.Key <= 0 || s.Key > s.Indep {
		return fmt.Errorf("relation %s: key %d out of range (indep %d)", s.Name, s.Key, s.Indep)
	}
	if s.Agg == nil {
		if s.Indep != s.Arity {
			return fmt.Errorf("relation %s: set relation with %d dependent columns", s.Name, s.Arity-s.Indep)
		}
		return nil
	}
	if s.Indep+s.Agg.Width() != s.Arity {
		return fmt.Errorf("relation %s: indep %d + agg width %d != arity %d",
			s.Name, s.Indep, s.Agg.Width(), s.Arity)
	}
	if s.Indep < 1 {
		return fmt.Errorf("relation %s: aggregated relation needs at least one independent column", s.Name)
	}
	return nil
}

// Config tunes a relation's distribution.
type Config struct {
	// Subs is the number of sub-buckets a heavy join key's bucket splits
	// into (spatial load balancing, §IV-C), fixed for the run (only Restore
	// sets it afterwards); a light key keeps sub-bucket 0 (heavy.go). 1
	// disables balancing; the paper's default is 8.
	Subs int
	// Integrity enables online divergence detection: every Materialize
	// computes order-independent 64-bit digests over this rank's shard and
	// agrees them in one AllreduceVec; a global mismatch raises
	// mpi.ErrStateDiverged on every rank. Must be identical on all ranks.
	Integrity bool
	// Leaky puts a set-semantics relation into the "leaky partial
	// aggregation" mode of the systems the paper compares against
	// (RaSQL/BigDatalog/SociaLite, §III-A/§IV-A): tuples carry their value
	// columns through ordinary set dedup, each rank prunes candidates only
	// against its own partial best per independent key, and superseded
	// tuples are never purged. The relation converges to a superset of the
	// true aggregate; a final gather computes exact answers. PARALAGG
	// relations never set this — it exists for the baseline engines.
	Leaky *LeakySpec
	// Base marks a set relation no rule derives, which changes only by its
	// load and rare applies: every index keeps FULL as a btree.Frozen run,
	// which each batch rewrites whole, not a B-tree.
	Base bool
}

// LeakySpec configures leaky-mode pruning: candidates whose dependent value
// does not improve this rank's partial best for their first Indep columns
// are dropped; improvements are kept alongside the now-stale tuples.
type LeakySpec struct {
	Agg   lattice.Aggregator
	Indep int
}

// Relation is one rank's handle on a distributed relation. All ranks must
// perform the same sequence of collective operations (AddIndex, LoadFacts,
// Materialize) on it.
type Relation struct {
	Schema
	comm *mpi.Comm
	mc   *metrics.Collector
	subs int

	// acc is the canonical aggregate accumulator: independent-column key →
	// current lattice value, stored word-keyed so the merge path never
	// touches the allocator. Only entries whose canonical placement maps to
	// this rank are present. Nil for set relations.
	acc *wordmap.Map

	// indexes hold the B-tree storage replicas that kernels read. A set
	// relation's index 0 is its canonical index (identity permutation),
	// where deduplication happens; an aggregated relation registers only
	// the indexes something reads, its canonical one included.
	indexes []*Index
	// placePerm, placeJK and placeHeavy place an aggregated relation's
	// accumulator and local indexes: a key lives where its independent
	// columns, taken in placePerm's order, bucket on the first placeJK and,
	// if those are heavy, sub-bucket on the rest (place). They start as the
	// schema's Key in canonical order; PlaceOn moves them to the index every
	// join reads. placeScratch holds one key in placePerm's order.
	placePerm    []int
	placeJK      int
	placeHeavy   *heavySet
	placeScratch tuple.Tuple
	// placed is set by the relation's first pass, which fixes every heavy
	// set (decideHeavy).
	placed bool
	// deltaCount is the number of tuples (keys, for an aggregated relation)
	// the last pass changed on this rank: Δ's size whichever indexes exist.
	// SeedDelta adds what it puts into index 0's Δ, so only the sum over
	// ranks, which is all anything reads, stays exact.
	deltaCount int

	// changedLast caches the global changed-count from the most recent
	// Materialize, letting the fixpoint driver skip join variants whose Δ
	// side is globally empty; Unsettled while that count is not agreed yet.
	changedLast uint64
	// enteredCounts holds every rank's LocalFullCount as the routing lane
	// headers of the most recent Materialize carried it (EnteredCounts).
	enteredCounts []int

	// leaky and leakyBest implement the baseline engines' partial
	// aggregation: leakyBest maps an independent-column key to this rank's
	// partial best dependent value. See Config.Leaky.
	leaky     *LeakySpec
	leakyBest *wordmap.Map

	// dropSet records what the current or last BeginDelete/EndDelete
	// bracket dropped: independent key → the dependent value it held (a set
	// relation's whole tuples, no value). It deduplicates repeated
	// invalidation candidates, drives the accumulator compaction in
	// EndDelete and is what Dropped reports; deleting is set inside the
	// bracket. See delete.go.
	dropSet  *wordmap.Map
	deleting bool
	// bounded lets DeleteBatch keep a key whose value is strictly better
	// than a candidate's (BoundRetraction).
	bounded bool

	// base is Config.Base, read only by Index.pickStore. setFresh views a set
	// relation's last pass or delete: the tuples its canonical FULL gained or
	// lost (Index.apply).
	base     bool
	setFresh tuple.Buffer

	sorter tuple.Sorter // orders every Δ run and fill of FULL, in capacity it keeps

	// Reusable scratch for the materialization hot path. All of it is
	// rank-private and reset at each use; nothing here survives a call
	// except as capacity.
	partial     *wordmap.Map  // ⊔-fold table (fold, materializeAgg)
	folded      int64         // candidates fold took this pass
	sendScratch [][]mpi.Word  // per-peer exchange build buffers
	freshBuf    *tuple.Buffer // changed canonical tuples of the pass
	tupScratch  tuple.Tuple   // one canonical-order tuple
	permScratch tuple.Tuple   // one stored-order (permuted) tuple

	// Online integrity state (Config.Integrity). digVec/digVecOut are the
	// reusable AllreduceVec buffers; digPrev carries the previous
	// iteration's agreed global FULL digest for the set-semantics history
	// check, valid only while digPrevValid (restores and redistribution
	// invalidate it until the next agreed digest re-adopts a baseline).
	integrity    bool
	digVec       []mpi.Word
	digVecOut    []mpi.Word
	digPrev      uint64
	digPrevValid bool
	// accDig is the running accumulator digest, maintained incrementally by
	// the merge path (aggregated relations only): any arena mutation that
	// bypasses the merge shows up as drift against the recomputed digest.
	// accDigValid mirrors digPrevValid across restores.
	accDig      uint64
	accDigValid bool
}

// Index is one storage replica of a relation under a column permutation.
// The first JK permuted columns are the index's join key: tuples are
// bucketed by hashing them, so a join probe on those columns is rank-local.
type Index struct {
	rel *Relation
	// Perm maps storage position → source column: stored[i] = t[Perm[i]].
	Perm []int
	// JK is the number of leading join-key columns in permuted space.
	JK int
	// indepLen is the number of leading permuted columns that are
	// independent source columns (used to locate stale aggregate entries).
	indepLen int
	// local marks an index stored with its aggregated relation's accumulator
	// (the canonical index and PlaceOn's): changed tuples reach it without a
	// replica exchange, and its FULL is a cache of the accumulator (stale).
	local bool

	// heavy is the heavy set of the index's join key (nil: none). homes
	// caches a heavy key's HomeRanks per bucket, whose first is a light
	// key's; rebuilt whenever the placement inputs (world size, sub-bucket
	// count, PlaceOn) change.
	heavy *heavySet
	homes [][]int

	// digInv is the inverse storage permutation the integrity digests walk
	// with (nil = identity), computed once on first use; see digestInv.
	digInv     []int
	digInvDone bool

	full        btree.Tree   // FULL unless frozenFull (pickStore), read through Full
	frozen      btree.Frozen // FULL if frozenFull; the other store stays empty
	frozenFull  bool
	delta       btree.Run // Δ, read through Delta
	deltaIsFull bool      // Δ is FULL itself (Delta)
	// stale marks a local index whose FULL lags the accumulator since a pass
	// or a delete; catchUps counts the rebuilds (CatchUp).
	stale    bool
	catchUps int
}

// Full returns the index's FULL, caught up first (CatchUp).
func (ix *Index) Full() View {
	if ix.stale {
		ix.CatchUp()
	}
	return ix.fullView()
}

// fullView returns FULL as it stands, stale or not.
func (ix *Index) fullView() View {
	if ix.frozenFull {
		return View{run: &ix.frozen.Run, frozen: &ix.frozen}
	}
	return View{tree: &ix.full}
}

// CatchUp brings a stale FULL up to date and reports whether it had to: a
// local index's frozen run takes the accumulator's rows, permuted straight
// into its capacity and sorted in place, so a warm catch-up allocates
// nothing. Inside a deletion bracket it leaves out the bracket's drops, which
// Lookup finds until EndDelete. Rank-local: it communicates nothing.
func (ix *Index) CatchUp() bool {
	if !ix.stale {
		return false
	}
	r := ix.rel
	rows := &ix.frozen.Run
	rows.Reset(r.Arity)
	rows.Grow(r.acc.Len())
	for w := r.acc.Words(); len(w) >= r.Arity; w = w[r.Arity:] {
		if !r.deleting || r.dropSet.Get(w[:r.Indep]) == nil {
			ix.permuteInto(w[:r.Arity], rows.Extend())
		}
	}
	ix.fill(rows)
	ix.catchUps++
	return true
}

// fill replaces FULL with run, one whole batch of stored-order tuples,
// sorted: a frozen FULL takes run's buffer (Frozen.Load), a tree is built
// from it. Filled from Δ's run, Δ becomes a view of FULL. Every fill of FULL
// comes here: a first pass or load, Restore, Clear and a catch-up.
func (ix *Index) fill(run *btree.Run) {
	r := ix.rel
	if ix.frozenFull {
		ix.frozen.Load(run, &r.sorter)
	} else {
		run.Sort(&r.sorter)
		ix.full.Reset()
		ix.full.Build(r.Arity, run.Words())
	}
	ix.stale = false
	if run == &ix.delta {
		ix.resetDelta()
		ix.deltaIsFull = true
	}
}

// apply has FULL take Δ's run, one batch of stored-order tuples that a pass
// adds (add) or a delete removes, sorted first: a local index's cache goes
// stale, an empty FULL is filled from the run (Δ a view of it), and any other
// FULL merges the batch in or filters it out, which leaves in Δ only the
// tuples that changed it. It returns the tuples that changed FULL, ascending,
// valid until Δ is next written.
func (ix *Index) apply(add bool) []tuple.Value {
	ix.delta.Sort(&ix.rel.sorter)
	run := ix.delta.Words()
	switch {
	case len(run) == 0:
	case add && !ix.stale && ix.fullView().Len() == 0:
		ix.fill(&ix.delta)
		return run
	case ix.local:
		ix.stale = true
	case ix.frozenFull && add:
		ix.frozen.Merge(&ix.delta)
	case ix.frozenFull:
		ix.frozen.Filter(&ix.delta)
	case add:
		// A set relation's indepLen is its arity: this is Merge.
		ix.full.MergePrefix(ix.indepLen, &ix.delta)
	default:
		ix.full.Filter(&ix.delta)
	}
	return ix.delta.Words()
}

// pickStore decides the shape of the index's FULL. Both shapes take whole
// batches (apply); they differ in what one costs. A frozen run, rewritten
// whole per batch, holds a FULL that changes rarely or is rebuilt whole: a
// base relation's, with a join-key directory, and a local index's cache,
// without, as each rebuild would refill it. A B-tree, a descent per tuple,
// holds one that changes every pass: a derived set relation's and an
// aggregated relation's replica.
func (ix *Index) pickStore() {
	ix.frozenFull = ix.rel.base || ix.local
	if ix.rel.base {
		ix.frozen.Reset(ix.rel.Arity, ix.JK)
	}
}

// View reads one version of an index in stored order: a FULL tree, a frozen
// FULL, or a pass's Δ run. Its tuples are views under btree's rules.
type View struct {
	tree   *btree.Tree
	run    *btree.Run    // a Δ run, or frozen's run
	frozen *btree.Frozen // probed through its directory
}

// Delta returns the index's Δ: FULL itself from a bulk load or ResetDelta
// to the next reset of Δ (FULL−Δ is then empty), the pass's sorted run
// otherwise. The view is rank-local, so no collective may branch on it.
func (ix *Index) Delta() View {
	if ix.deltaIsFull {
		return ix.Full()
	}
	return View{run: &ix.delta}
}

// IsFull reports whether the view reads FULL.
func (v View) IsFull() bool { return v.tree != nil || v.frozen != nil }

// Words returns the view's tuples laid end to end when it reads a run (a Δ
// run or a frozen FULL), valid until the index next changes; nil for a tree.
func (v View) Words() []tuple.Value {
	if v.run == nil {
		return nil
	}
	return v.run.Words()
}

// Len returns the number of tuples in the view.
func (v View) Len() int {
	if v.tree != nil {
		return v.tree.Len()
	}
	return v.run.Len()
}

// Has reports whether the exact tuple t is in the view.
func (v View) Has(t tuple.Tuple) bool {
	if v.tree != nil {
		return v.tree.Has(t)
	}
	return v.run.Has(t)
}

// Ascend calls fn for every tuple in order until fn returns false.
func (v View) Ascend(fn func(tuple.Tuple) bool) {
	if v.tree != nil {
		v.tree.Ascend(fn)
	} else {
		v.run.Ascend(fn)
	}
}

// AscendPrefix calls fn, in order, for every tuple whose leading columns
// equal prefix, until fn returns false.
func (v View) AscendPrefix(prefix tuple.Tuple, fn func(tuple.Tuple) bool) {
	switch {
	case v.tree != nil:
		v.tree.AscendPrefix(prefix, fn)
	case v.frozen != nil:
		v.frozen.AscendPrefix(prefix, fn)
	default:
		v.run.AscendPrefix(prefix, fn)
	}
}

// resetDelta empties Δ and ends a view of FULL.
func (ix *Index) resetDelta() {
	ix.delta.Reset(len(ix.Perm))
	ix.deltaIsFull = false
}

// New constructs a rank's shard of a relation. Every rank of the world must
// call it with identical arguments.
func New(sch Schema, comm *mpi.Comm, mc *metrics.Collector, cfg Config) (*Relation, error) {
	if err := sch.Validate(); err != nil {
		return nil, err
	}
	subs := cfg.Subs
	if subs < 1 {
		subs = 1
	}
	if cfg.Base && (sch.Agg != nil || cfg.Leaky != nil) {
		return nil, fmt.Errorf("relation %s: only a plain set relation can be a base relation", sch.Name)
	}
	r := &Relation{Schema: sch, comm: comm, mc: mc, subs: subs, integrity: cfg.Integrity, base: cfg.Base}
	if sch.Agg != nil {
		r.acc = wordmap.New(sch.Indep, sch.Dep())
	}
	if cfg.Leaky != nil {
		if sch.Agg != nil {
			return nil, fmt.Errorf("relation %s: leaky mode applies to set relations only", sch.Name)
		}
		if cfg.Leaky.Indep < 1 || cfg.Leaky.Indep >= sch.Arity || cfg.Leaky.Agg == nil {
			return nil, fmt.Errorf("relation %s: bad leaky spec", sch.Name)
		}
		r.leaky = cfg.Leaky
		r.leakyBest = wordmap.New(cfg.Leaky.Indep, sch.Arity-cfg.Leaky.Indep)
	}
	identity := make([]int, sch.Arity)
	for i := range identity {
		identity[i] = i
	}
	if sch.Agg != nil {
		// The accumulator is placed on the schema's Key until PlaceOn; no
		// tree holds it.
		r.placePerm, r.placeJK = identity, sch.Key
		r.placeScratch = make(tuple.Tuple, sch.Indep)
	} else if _, err := r.AddIndex(identity, sch.Key); err != nil {
		return nil, err
	}
	return r, nil
}

// PlaceOn makes ix, the one index every join reads this aggregated relation
// through, its placement: the accumulator and the canonical index, if one is
// registered, then live where ix buckets on its join key and sub-buckets on
// the other independent columns, and update in place with it. Any other
// index stays a replica. Call it identically on every rank, before any facts
// are loaded.
func (r *Relation) PlaceOn(ix *Index) {
	r.placePerm, r.placeJK, r.placeHeavy = ix.Perm, ix.JK, ix.heavy
	ix.local = true
	ix.pickStore()
	r.rebuildHomeCaches()
}

// Comm returns the communicator the relation was built on.
func (r *Relation) Comm() *mpi.Comm { return r.comm }

// Canonical returns the identity-permutation index keyed on the schema's
// Key: a set relation's index 0, or the one an aggregated relation holds
// because something reads it in canonical order — nil if nothing does.
func (r *Relation) Canonical() *Index {
	if r.Agg == nil {
		return r.indexes[0]
	}
	for _, ix := range r.indexes {
		if ix.canonical() {
			return ix
		}
	}
	return nil
}

// canonical reports whether the index stores canonical order keyed on the
// schema's Key.
func (ix *Index) canonical() bool {
	if ix.JK != ix.rel.Key {
		return false
	}
	for i, c := range ix.Perm {
		if i != c {
			return false
		}
	}
	return true
}

// Indexes returns all registered indexes in registration order (a set
// relation's canonical index first).
func (r *Relation) Indexes() []*Index { return r.indexes }

// ChangedLast returns the global changed-tuple count from the most recent
// Materialize, or Unsettled while it rides to the next routing exchange:
// identical on every rank, and above zero when Δ may hold tuples somewhere.
func (r *Relation) ChangedLast() uint64 { return r.changedLast }

// AddIndex registers a storage replica with the given column permutation
// and join-key length. For aggregated relations every independent column
// must appear before every dependent column so that the independent prefix
// uniquely locates the (single) stored tuple per key. Indexes must be
// registered identically on every rank before any facts are loaded.
func (r *Relation) AddIndex(perm []int, jk int) (*Index, error) {
	if len(perm) != r.Arity {
		return nil, fmt.Errorf("relation %s: index perm %v has %d entries, arity %d", r.Name, perm, len(perm), r.Arity)
	}
	seen := make([]bool, r.Arity)
	for _, c := range perm {
		if c < 0 || c >= r.Arity || seen[c] {
			return nil, fmt.Errorf("relation %s: bad index perm %v", r.Name, perm)
		}
		seen[c] = true
	}
	if jk < 1 || jk > r.Arity {
		return nil, fmt.Errorf("relation %s: index jk %d out of range", r.Name, jk)
	}
	idx := &Index{
		rel:      r,
		Perm:     append([]int(nil), perm...),
		JK:       jk,
		indepLen: r.Indep,
	}
	idx.delta.Reset(r.Arity)
	if r.Agg != nil {
		// Independent columns must be a prefix of the permutation.
		for i := 0; i < r.Indep; i++ {
			if perm[i] >= r.Indep {
				return nil, fmt.Errorf("relation %s: index perm %v places dependent column %d before independent ones",
					r.Name, perm, perm[i])
			}
		}
		if jk > r.Indep {
			return nil, fmt.Errorf("relation %s: index joins on dependent columns (jk %d > indep %d): "+
				"recursive aggregates may not be joined on their aggregated columns", r.Name, jk, r.Indep)
		}
	}
	// An aggregated relation's canonical index lives with its accumulator.
	idx.local = r.Agg != nil && idx.canonical()
	idx.pickStore()
	idx.buildHomes()
	r.indexes = append(r.indexes, idx)
	return r.indexes[len(r.indexes)-1], nil
}

// FindIndex returns a registered index with exactly the given permutation
// prefix as join key: the first jk entries of perm must match. It returns
// nil if none exists.
func (r *Relation) FindIndex(perm []int, jk int) *Index {
	for _, idx := range r.indexes {
		if idx.JK != jk || len(idx.Perm) != len(perm) {
			continue
		}
		match := true
		for i, c := range perm {
			if idx.Perm[i] != c {
				match = false
				break
			}
		}
		if match {
			return idx
		}
	}
	return nil
}

// permuteInto writes t rearranged into the index's storage order into out,
// which must have length Arity.
func (ix *Index) permuteInto(t, out tuple.Tuple) {
	for i, c := range ix.Perm {
		out[i] = t[c]
	}
}

// place returns the rank of a tuple whose first jk words are its join key
// and words jk..Indep its other independent columns: bucket b is the join
// key's hash modulo the world size (one logical bucket per rank, as in
// BPRA); a light key lives at sub-bucket 0 of it, and a heavy key (heavy
// holds its slot) at the sub-bucket its other independent columns hash to.
// Dependent columns never contribute, so an aggregate update stays on one
// rank; with no independent columns beyond the key every key is single-sub
// (each holds one tuple of an aggregated relation: nothing to balance).
func (r *Relation) place(t tuple.Tuple, jk int, heavy *heavySet) int {
	h := t.HashPrefix(jk)
	b := int(h % uint64(r.comm.Size()))
	if r.subs == 1 || jk >= r.Indep || !heavy.has(h) {
		return b
	}
	return r.rankOf(b, int(tuple.Tuple(t[jk:r.Indep]).Hash()%uint64(r.subs)))
}

// rankOf maps (bucket, sub) to a rank. Sub-buckets of one bucket spread
// across consecutive ranks so a skewed bucket's load lands on several hosts,
// and the bucket always counts: sub-bucket 0 of bucket b is rank b, and the
// first min(subs, size) sub-buckets of a bucket name distinct ranks.
func (r *Relation) rankOf(bucket, sub int) int {
	return (bucket + sub) % r.comm.Size()
}

// HomeRanks returns every rank holding a tuple of this index whose join key
// hashes to h (tuple.HashPrefix over the index's JK words), deduplicated:
// rankOf(bucket, 0) alone for a light key, every sub-bucket's rank for a
// heavy one. A join sends an outer tuple to exactly these ranks of the
// inner index. The returned slice is a cached precomputation shared across
// calls; callers must not mutate it.
func (ix *Index) HomeRanks(h uint64) []int {
	homes := ix.homes[h%uint64(len(ix.homes))]
	if !ix.heavy.has(h) {
		return homes[:1:1]
	}
	return homes
}

// buildHomes precomputes a heavy key's HomeRanks for every bucket under the
// current world size and sub-bucket count, so the join inner loop never
// rebuilds the dedup set per probe.
func (ix *Index) buildHomes() {
	r := ix.rel
	size := r.comm.Size()
	homes := make([][]int, size)
	if r.subs == 1 || ix.JK >= ix.indepLen {
		flat := make([]int, size)
		for b := 0; b < size; b++ {
			flat[b] = r.rankOf(b, 0)
			homes[b] = flat[b : b+1 : b+1]
		}
	} else {
		// Sub-buckets s and s+size of a bucket share a rank, so the first
		// min(subs, size) name every home once, in first-appearance order.
		for b := 0; b < size; b++ {
			out := make([]int, min(r.subs, size))
			for s := range out {
				out[s] = r.rankOf(b, s)
			}
			homes[b] = out
		}
	}
	ix.homes = homes
}

// holdsHeavy reports whether some key of the index lives on more than one
// rank: the heavy set is not empty and a bucket has several homes.
func (ix *Index) holdsHeavy() bool { return ix.heavy != nil && len(ix.homes[0]) > 1 }

// CoPartitioned reports whether a join of a and b on their first jk stored
// columns needs no intra-bucket exchange: both indexes bucket on exactly
// those columns and neither holds a heavy key, so every key of either lives
// at sub-bucket 0 of its bucket, the same rank on both sides, and every
// outer tuple's only inner home is the rank that holds it. The heavy sets
// and sub-bucket count are agreed on every rank, so every rank computes the
// same answer for the current placement.
func CoPartitioned(a, b *Index, jk int) bool {
	return a.JK == jk && b.JK == jk && !a.holdsHeavy() && !b.holdsHeavy()
}

// rebuildHomeCaches recomputes every index's HomeRanks cache after a
// placement input changed (PlaceOn, snapshot restore).
func (r *Relation) rebuildHomeCaches() {
	for _, ix := range r.indexes {
		ix.buildHomes()
	}
}

// ownedHere reports whether a stored-order tuple belongs on this rank in
// this index.
func (ix *Index) ownedHere(stored tuple.Tuple) bool {
	return ix.homeOf(stored) == ix.rel.comm.Rank()
}

// homeOf returns the rank a stored-order tuple of this index lives on: its
// own join key's bucket and sub-bucket (place), except for an aggregated
// relation's canonical index, which lives with the accumulator wherever
// that is placed.
func (ix *Index) homeOf(stored tuple.Tuple) int {
	if ix.local && ix.canonical() {
		return ix.rel.accPlacement(stored)
	}
	return ix.rel.place(stored, ix.JK, ix.heavy)
}

// accPlacement returns the rank owning the accumulator entry of a
// canonical-order tuple: its bucket and sub-bucket under the placement, of
// which only the independent columns are read.
func (r *Relation) accPlacement(t tuple.Tuple) int {
	key := r.placeScratch
	for i := range key {
		key[i] = t[r.placePerm[i]]
	}
	return r.place(key, r.placeJK, r.placeHeavy)
}

// sendBuf returns the relation's reusable per-peer exchange build buffers,
// truncated to zero length. The buffers feed Alltoallv, whose diagonal lane
// is handed to the receiver as an alias — so a fresh sendBuf call is only
// legal once the previous exchange's received data has been fully consumed
// (every Materialize phase does exactly that before building its next
// exchange).
func (r *Relation) sendBuf(size int) [][]mpi.Word {
	if cap(r.sendScratch) < size {
		r.sendScratch = make([][]mpi.Word, size)
	}
	r.sendScratch = r.sendScratch[:size]
	for i := range r.sendScratch {
		r.sendScratch[i] = r.sendScratch[i][:0]
	}
	return r.sendScratch
}

// mergeDep folds dep into m's entry for key through the lattice ⊔, writing
// the result into the table's arena in place. It reports whether the entry
// changed (was inserted or strictly improved).
func (r *Relation) mergeDep(agg lattice.Aggregator, m *wordmap.Map, key, dep []tuple.Value) bool {
	v, inserted := m.Upsert(key)
	if inserted {
		copy(v, dep)
		return true
	}
	merged := agg.Join(v, dep)
	if agg.Compare(merged, v) == lattice.Equal {
		return false
	}
	copy(v, merged)
	return true
}

// LocalFullCount returns the number of tuples this rank stores in the
// canonical index (set relations) or accumulator (aggregated relations).
func (r *Relation) LocalFullCount() int {
	if r.Agg != nil {
		return r.acc.Len()
	}
	return r.indexes[0].fullView().Len()
}

// LocalDeltaCount returns the number of Δ tuples on this rank: the tuples
// (keys) the last pass changed here.
func (r *Relation) LocalDeltaCount() int { return r.deltaCount }

// GlobalFullCount sums LocalFullCount across ranks (collective).
func (r *Relation) GlobalFullCount() uint64 {
	return r.comm.Allreduce(uint64(r.LocalFullCount()), mpi.OpSum)
}

// PerRankCounts gathers every rank's LocalFullCount (collective); the
// result feeds the paper's Figure 3 tuple-distribution CDF.
func (r *Relation) PerRankCounts() []int {
	all := r.comm.Allgather(uint64(r.LocalFullCount()))
	out := make([]int, len(all))
	for i, v := range all {
		out[i] = int(v)
	}
	return out
}

// EnteredCounts returns every rank's LocalFullCount as the routing lane
// headers of the most recent Materialize carried it: the distribution the
// previous pass left. Rank-local shared scratch the caller must not keep.
func (r *Relation) EnteredCounts() []int { return r.enteredCounts }

// Lookup returns the accumulator value for the given independent key if it
// lives on this rank (aggregated relations only). The returned slice
// aliases the accumulator arena and is valid until the next Materialize.
func (r *Relation) Lookup(indepKey tuple.Tuple) ([]tuple.Value, bool) {
	if r.Agg == nil {
		return nil, false
	}
	v := r.acc.Get(indepKey)
	return v, v != nil
}

// AccWords returns this rank's accumulator entries as canonical tuples laid
// end to end, Arity words each, in insertion order (nil for a set
// relation). The slice aliases the accumulator arena and is valid until the
// next Materialize.
func (r *Relation) AccWords() []tuple.Value {
	if r.Agg == nil {
		return nil
	}
	return r.acc.Words()
}

// EachAcc iterates this rank's accumulator entries as canonical tuples in
// insertion order. Each tuple is a view into the accumulator arena, valid
// only until fn returns; a caller that keeps one clones it.
func (r *Relation) EachAcc(fn func(tuple.Tuple)) {
	for w := r.AccWords(); len(w) > 0; w = w[r.Arity:] {
		fn(w[:r.Arity:r.Arity])
	}
}

// SetChangedLast overrides the cached global changed count. The fixpoint
// driver uses it when re-seeding Δ at a stratum boundary; the value must be
// identical on every rank.
func (r *Relation) SetChangedLast(n uint64) { r.changedLast = n }

// MemWords reports this rank's accounted storage footprint for the
// relation, in words: the accumulator arena, every index's FULL (a frozen
// FULL's spare buffer and directory included) and Δ run, the last delete's
// drop set, and the reusable exchange and sort scratch, all by capacity.
// Each term is an O(1) capacity read, so the memory accountant can sample
// it every iteration without touching the hot path.
func (r *Relation) MemWords() int64 {
	var w int64
	for _, m := range []*wordmap.Map{r.acc, r.leakyBest, r.partial, r.dropSet} {
		if m != nil {
			w += m.MemWords()
		}
	}
	for _, ix := range r.indexes {
		w += ix.full.MemWords() + ix.frozen.MemWords() + ix.delta.MemWords()
	}
	w += r.sorter.MemWords()
	w += int64(cap(r.tupScratch)) + int64(cap(r.permScratch))
	for _, lane := range r.sendScratch {
		w += int64(cap(lane))
	}
	if r.freshBuf != nil {
		w += int64(cap(r.freshBuf.Words))
	}
	return w
}

// ReleaseScratch drops the relation's reusable scratch capacity — the
// pre-aggregation table, per-peer exchange lanes, tuple buffers, the sort
// scratch and a frozen FULL's spare buffer — the soft response of the
// memory accountant's pressure ladder. Resident state (accumulator, indexes,
// a caught-up cache among them) is untouched, so correctness is unaffected;
// the next Materialize simply re-grows its scratch, trading allocations for
// headroom.
func (r *Relation) ReleaseScratch() {
	r.partial = nil
	r.sendScratch = nil
	r.freshBuf = nil
	r.sorter = tuple.Sorter{}
	for _, ix := range r.indexes {
		ix.frozen.ReleaseSpare()
	}
}
