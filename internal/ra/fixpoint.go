package ra

import (
	"fmt"
	"time"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/obs"
	"paralagg/internal/relation"
	"paralagg/internal/resource"
)

// Rule is one compiled kernel in a stratum. Joins contribute up to two
// semi-naïve variants per iteration; copies contribute one.
type Rule interface {
	// Heads returns the relation the rule writes.
	HeadRel() *relation.Relation
	// Bodies returns the relations the rule reads.
	BodyRels() []*relation.Relation
	// RunVariants executes every semi-naïve variant whose Δ side changed
	// in the previous iteration, writing head tuples into out.
	RunVariants(iter int, mode PlanMode, mc *metrics.Collector, out *relation.Candidates)
}

// HeadRel implements Rule.
func (j *Join) HeadRel() *relation.Relation { return j.Head }

// BodyRels implements Rule.
func (j *Join) BodyRels() []*relation.Relation {
	return []*relation.Relation{j.LeftRel, j.RightRel}
}

// RunVariants implements Rule: it runs Δ⋈FULL when the left side changed
// and (FULL−Δ)⋈Δ when the right side changed. The two variants partition
// the new pairs exactly — every (left, right) pair involving at least one Δ
// tuple is produced exactly once — so even non-idempotent aggregates
// (MSum, MCount) accumulate correctly.
func (j *Join) RunVariants(iter int, mode PlanMode, mc *metrics.Collector, out *relation.Candidates) {
	if j.LeftRel.ChangedLast() > 0 {
		j.Run(iter, VDelta, VFull, mode, mc, out)
	}
	if j.RightRel.ChangedLast() > 0 {
		j.Run(iter, VFullMinusDelta, VDelta, mode, mc, out)
	}
}

// HeadRel implements Rule.
func (cp *Copy) HeadRel() *relation.Relation { return cp.Head }

// BodyRels implements Rule.
func (cp *Copy) BodyRels() []*relation.Relation {
	return []*relation.Relation{cp.SrcRel}
}

// RunVariants implements Rule: copies scan Δ of their source when it
// changed.
func (cp *Copy) RunVariants(iter int, mode PlanMode, mc *metrics.Collector, out *relation.Candidates) {
	if cp.SrcRel.ChangedLast() > 0 {
		cp.Run(iter, mc, out)
	}
}

// Options tunes a fixpoint run.
type Options struct {
	// Plan selects the join-layout strategy (§IV-D).
	Plan PlanMode
	// MaxIters bounds the number of iterations (0 = until fixpoint).
	MaxIters int
	// AfterIteration, if set, runs on every rank at the end of each
	// iteration (after materialization, before the fixpoint decision). The
	// baseline engines use it to model per-iteration runtime overheads of
	// the systems the paper compares against.
	AfterIteration func(iter int, changed uint64)

	// CheckpointEvery, with Sink set, snapshots the stratum's relations
	// every CheckpointEvery completed iterations so a failed run can Resume
	// instead of restarting from scratch. 0 disables checkpointing. The
	// serialization cost is metered as metrics.PhaseCheckpoint.
	CheckpointEvery int
	// Sink stores the per-rank snapshots.
	Sink CheckpointSink
	// Stratum labels the checkpoints this run writes (multi-stratum
	// programs resume into the right stratum).
	Stratum int
	// SnapshotRels overrides the set of relations captured per checkpoint.
	// Defaults to the stratum's heads plus its body-only inputs; callers
	// coordinating several strata (core.Instance) pass every relation of
	// the program so one snapshot restores the whole computation.
	SnapshotRels []*relation.Relation

	// Acct, when set with a positive budget, turns on the memory-pressure
	// ladder: once per iteration the driver samples the stratum's resident
	// footprint into the accountant and collectively agrees on the pressure
	// level. Soft pressure sheds scratch pools and brings the next
	// checkpoint forward; hard pressure fails the iteration with a
	// structured resource.ErrMemoryBudget (inside mpi.ErrRankFailed), which
	// the supervisor recovers like any rank death. The ladder adds one
	// Allreduce per iteration, so every rank of a world must configure the
	// same Acct non-nilness.
	Acct *resource.Accountant
}

// Fixpoint runs a stratum's rules to fixpoint with semi-naïve evaluation.
type Fixpoint struct {
	Comm  *mpi.Comm
	MC    *metrics.Collector
	Rules []Rule

	heads []*relation.Relation

	// Iteration scratch, built by NewFixpoint and reused across every
	// iteration and every Run/Resume call: the body-only (EDB) relation
	// list, the full relation list that snapshots and the memory sampler
	// scan, and one Candidates per head. Hoisting these out of the loop
	// keeps the steady-state iteration allocation-free.
	bodyOnly []*relation.Relation
	allRels  []*relation.Relation
	cands    map[*relation.Relation]*relation.Candidates
	// entered holds each head's summed routing headers from the latest
	// step, in heads order; window is that step's iterWindow.
	entered []uint64
	window  iterWindow

	// Pending injected state corruption (chaos): a fault whose target shard
	// was still empty when it fired is retried each iteration until it
	// lands on real state. tamperMask == 0 means none pending.
	tamperRel  string
	tamperMask mpi.Word

	// fallbackSink replaces Options.Sink for the rest of the run after
	// persistent checkpoint storage failed (ENOSPC, short write): the run
	// degrades to in-memory snapshots instead of aborting. Rank-local —
	// fault-tolerance across process restarts is void once degraded, which
	// the KindCkptDegraded event and CheckpointDegradations() surface.
	fallbackSink CheckpointSink
}

// NewFixpoint assembles a stratum from compiled rules.
func NewFixpoint(comm *mpi.Comm, mc *metrics.Collector, rules ...Rule) *Fixpoint {
	f := &Fixpoint{Comm: comm, MC: mc, Rules: rules}
	seen := map[*relation.Relation]bool{}
	for _, r := range rules {
		if h := r.HeadRel(); !seen[h] {
			seen[h] = true
			f.heads = append(f.heads, h)
		}
	}
	// Body-only relations (EDBs), in first-appearance order.
	for _, r := range rules {
		for _, b := range r.BodyRels() {
			if !seen[b] {
				seen[b] = true
				f.bodyOnly = append(f.bodyOnly, b)
			}
		}
	}
	f.allRels = append(append([]*relation.Relation(nil), f.heads...), f.bodyOnly...)
	f.cands = make(map[*relation.Relation]*relation.Candidates, len(f.heads))
	f.entered = make([]uint64, len(f.heads))
	for _, h := range f.heads {
		f.cands[h] = relation.NewCandidates(h)
	}
	return f
}

// snapshotSet returns the relations a checkpoint captures.
func (f *Fixpoint) snapshotSet(opts Options) []*relation.Relation {
	if opts.SnapshotRels != nil {
		return opts.SnapshotRels
	}
	return f.allRels
}

// Run iterates the stratum until no relation changes (or opts.MaxIters is
// reached), returning the number of iterations executed. It is collective.
//
// Each iteration runs every applicable kernel variant, then materializes
// every head relation — routing new tuples, fusing deduplication with local
// aggregation, flipping Δ versions — and finally agrees on the global
// changed count. Body-only relations (EDBs) have their Δ flipped so copy
// rules fire exactly once on loaded facts.
//
// Calling Run again after a MaxIters truncation continues the fixpoint from
// the relations' current state (Δ and changed counts persist), eventually
// reaching the same fixpoint as an unbounded run. With opts.CheckpointEvery
// set, periodic snapshots additionally allow Resume after a failure.
func (f *Fixpoint) Run(opts Options) int {
	return f.run(opts, 0)
}

// Resume restores the checkpoint set at pos — the position the ranks agreed
// on (AgreedPosition; the caller runs the agreement once and picks the
// stratum from it) — and continues the fixpoint from the iteration it
// captured, returning the total number of iterations the stratum has
// executed including the pre-crash ones. There is one restore for every
// world size: each rank loads the shards it can own tuples from and keeps
// what the current placement assigns to it (relation.Restore). On a world of
// the writing size that is the rank's own shard, every tuple of which it
// keeps (metered as metrics.PhaseRecovery); on any other size it is the
// complete old shard set, re-hashed through the current bucket/sub-bucket
// layout (metrics.PhaseRemap). Loading and restoring are rank-local — like
// checkpointing itself, a restore moves no bytes between ranks — so only
// the outcome agreement is collective.
func (f *Fixpoint) Resume(opts Options, pos Position) (int, error) {
	if opts.Sink == nil {
		return 0, fmt.Errorf("ra: Resume needs Options.Sink")
	}
	if pos.Stratum != opts.Stratum {
		return 0, fmt.Errorf("ra: checkpoint belongs to stratum %d, resuming stratum %d", pos.Stratum, opts.Stratum)
	}
	f.emitCkptScan(opts, pos.Iter)
	timer := metrics.StartTimer()
	label, origins := "recovery", []int{f.Comm.Rank()}
	if pos.Ranks != f.Comm.Size() {
		label, origins = "remap", make([]int, pos.Ranks)
		for r := range origins {
			origins[r] = r
		}
	}
	words := 0
	shards, err := loadShards(opts.Sink, pos, origins)
	if err == nil {
		words, err = f.restore(opts, shards)
	}
	if err := agreeOutcome(f.Comm, err); err != nil {
		return 0, err
	}
	f.meterRestore(opts, label, pos.Iter, timer, words)
	return f.run(opts, pos.Iter), nil
}

// Rejoin re-enters the fixpoint on a hot-replacement rank. cp is this
// rank's own checkpoint (PeekRejoin), already used to seed the transport's
// frame counters before the world existed. Unlike Resume there is no
// collective agreement — the survivors never left, so the position is
// whatever this rank saved last — and the restore reads that one shard.
// After restoring it, the rank replays the original run's post-capture
// checkpoint sequence (marks fanout, barrier, history mark) so its frame
// stream re-aligns with the dead incarnation's, then re-executes iterations
// from cp.Iter: frames the survivors already consumed are dropped as
// duplicates on their side, frames this rank needs are retransmitted from
// their held-back history, and the frames the crash lost are regenerated.
// Deterministic re-execution makes the splice exact.
func (f *Fixpoint) Rejoin(opts Options, cp Checkpoint) (int, error) {
	if cp.Stratum != opts.Stratum {
		return 0, fmt.Errorf("ra: checkpoint belongs to stratum %d, rejoining stratum %d", cp.Stratum, opts.Stratum)
	}
	if cp.Ranks != f.Comm.Size() {
		return 0, fmt.Errorf("ra: checkpoint was written by a %d-rank world, cannot rejoin a %d-rank world", cp.Ranks, f.Comm.Size())
	}
	timer := metrics.StartTimer()
	words, err := f.restore(opts, []relation.Shard{{Origin: f.Comm.Rank(), Words: cp.Words}})
	if err != nil {
		return 0, err
	}
	f.meterRestore(opts, "rejoin", cp.Iter, timer, words)
	f.Comm.RejoinMarks()
	sealCut(f.Comm)
	return f.run(opts, cp.Iter), nil
}

// restore replaces every relation of the snapshot set with what this rank's
// placement keeps of the given checkpoint payloads, one per origin rank
// loaded, and returns the number of payload words read (the restore's work
// measure). A payload is the relations' snapshots in snapshot-set order,
// each behind a length word. Rank-local.
func (f *Fixpoint) restore(opts Options, shards []relation.Shard) (int, error) {
	words := 0
	rest := make([][]mpi.Word, len(shards))
	for i, sh := range shards {
		rest[i] = sh.Words
		words += len(sh.Words)
	}
	section := make([]relation.Shard, len(shards))
	for _, rel := range f.snapshotSet(opts) {
		for i, sh := range shards {
			sec, tail, err := cutSection(rest[i])
			if err != nil {
				return 0, fmt.Errorf("ra: rank %d's checkpoint, relation %s: %v (at word %d of %d)",
					sh.Origin, rel.Name, err, len(sh.Words)-len(rest[i]), len(sh.Words))
			}
			section[i], rest[i] = relation.Shard{Origin: sh.Origin, Words: sec}, tail
		}
		if err := rel.Restore(section); err != nil {
			return 0, err
		}
	}
	for i, sh := range shards {
		if len(rest[i]) != 0 {
			return 0, fmt.Errorf("ra: rank %d's checkpoint has %d trailing words: relation set mismatch",
				sh.Origin, len(rest[i]))
		}
	}
	return words, nil
}

// emitCkptScan streams the recovery scan's integrity outcome: the
// process-wide cumulative validation-failure and quarantine counters after
// LatestValid settled on a position. A supervisor or live exporter diffs
// successive events to see how much corruption each recovery stepped over.
func (f *Fixpoint) emitCkptScan(opts Options, iter int) {
	o := f.MC.Observer()
	if o == nil {
		return
	}
	fails, quar := CheckpointIntegrityStats()
	e := obs.Get()
	e.Kind = obs.KindCkptScan
	e.Rank, e.Stratum, e.Iter = f.Comm.Rank(), opts.Stratum, iter
	e.Failures, e.Quarantined = fails, quar
	e.End = time.Now().UnixNano()
	obs.Emit(o, e)
}

// meterRestore records a completed restore and streams its event. The label
// is what an operator sees: "recovery" when the writing world had this
// world's size, "remap" when every tuple was re-hashed into a world of
// another size, "rejoin" for a hot replacement.
func (f *Fixpoint) meterRestore(opts Options, label string, iter int, timer metrics.Timer, words int) {
	phase := metrics.PhaseRecovery
	if label == "remap" {
		phase = metrics.PhaseRemap
	}
	f.MC.Record(f.Comm.Rank(), iter, phase,
		timer.Done(int64(words), int64(words*mpi.WordBytes), 0))
	o := f.MC.Observer()
	if o == nil {
		return
	}
	e := obs.Get()
	e.Kind = obs.KindRecovery
	e.Rank, e.Stratum, e.Iter = f.Comm.Rank(), opts.Stratum, iter
	e.Name = label
	e.Bytes = int64(words * mpi.WordBytes)
	e.End = time.Now().UnixNano()
	obs.Emit(o, e)
}

// Capture serialises rels — this rank's shard of each, in order, every
// snapshot behind a length word and digested into the manifest — as the
// checkpoint of (stratum, iter) and hands it to save. On a hot-replace
// world the capture sits inside a consistent cut of the wire's frame
// counters (a no-op rendezvous otherwise), so the saved state and the saved
// wire position describe the same instant, and sealCut then holds every
// rank until all have saved. It returns the payload length in words and
// save's error. Collective.
func Capture(comm *mpi.Comm, rels []*relation.Relation, stratum, iter int, save func(Checkpoint) error) (int, error) {
	sendMarks, recvMarks, marked := comm.CheckpointMarks()
	var words []mpi.Word
	var sums []uint64
	for _, rel := range rels {
		sub := rel.SnapshotWords()
		sums = append(sums, ckptSum(sub))
		words = append(words, mpi.Word(len(sub)))
		words = append(words, sub...)
	}
	err := save(Checkpoint{Ranks: comm.Size(), Stratum: stratum, Iter: iter, Words: words, SectionSums: sums,
		SendSeqs: sendMarks, RecvSeqs: recvMarks})
	if marked {
		sealCut(comm)
	}
	return len(words), err
}

// sealCut closes a checkpoint cut on a hot-replace world: no rank may start
// next-iteration sends before every rank captured and saved; only then may
// retained send history roll forward. The star-shaped CheckpointBarrier
// keeps the cut consistent under the tree schedule too (see
// mpi.CheckpointBarrier).
func sealCut(comm *mpi.Comm) {
	comm.CheckpointBarrier()
	comm.WireMarkCheckpoint()
}

// checkpoint snapshots the stratum's relations after `iter` completed
// iterations. A structured storage failure (*ErrCheckpointStorage: the
// device is full or lying) degrades the run to an in-memory fallback sink
// with a warning event instead of failing the rank; any other sink error
// fails this rank (the panic is recovered into an ErrRankFailed by the
// runtime), because continuing without the promised checkpoint would
// silently void the fault-tolerance contract.
func (f *Fixpoint) checkpoint(opts Options, iter int) {
	timer := metrics.StartTimer()
	rank := f.Comm.Rank()
	words, _ := Capture(f.Comm, f.snapshotSet(opts), opts.Stratum, iter, func(cp Checkpoint) error {
		f.save(opts, iter, cp)
		return nil
	})
	f.MC.Record(rank, iter-1, metrics.PhaseCheckpoint,
		timer.Done(int64(words), int64(words*mpi.WordBytes), 0))
	if o := f.MC.Observer(); o != nil {
		e := obs.Get()
		e.Kind = obs.KindCheckpoint
		e.Rank, e.Stratum, e.Iter = rank, opts.Stratum, iter
		e.Bytes = int64(words * mpi.WordBytes)
		e.End = time.Now().UnixNano()
		obs.Emit(o, e)
	}
}

// save stores this rank's captured checkpoint, applying the storage faults
// the chaos plan injects and the degradation described on checkpoint.
func (f *Fixpoint) save(opts Options, iter int, cp Checkpoint) {
	rank := f.Comm.Rank()
	sink := opts.Sink
	if f.fallbackSink != nil {
		sink = f.fallbackSink
	}
	var err error
	if f.Comm.DiskFullNow(iter) {
		// Injected storage fault: the device reports full before any byte
		// lands, exactly like a real ENOSPC on the temp-file write.
		err = &ErrCheckpointStorage{Path: "(injected disk-full)",
			Cause: fmt.Errorf("no space left on device (injected at iteration %d)", iter)}
	} else {
		err = sink.Save(rank, cp)
	}
	if err != nil {
		if _, ok := AsCheckpointStorage(err); !ok {
			panic(fmt.Sprintf("ra: rank %d checkpoint save at iteration %d failed: %v", rank, iter, err))
		}
		// Degrade: persistent checkpointing is gone for this run. Keep the
		// computation alive on in-memory snapshots (still good for in-process
		// supervisor recovery, void across a process restart) and surface
		// the loss loudly instead of aborting.
		f.fallbackSink = NewMemorySink(0)
		ckptDegradations.Add(1)
		f.emitCkptDegraded(opts, iter, err)
		sink = f.fallbackSink
		sink.Save(rank, cp) // a memory store never refuses a write
	}
	if f.Comm.CkptCorruptNow(iter) {
		// Injected checkpoint-corruption fault: flip bits of the generation
		// just written so the next recovery scan must quarantine it and fall
		// back one generation.
		if s, ok := sink.(*Sink); ok {
			s.TamperNewest(rank)
		}
	}
}

// pressure feeds the accountant one iteration's footprint sample and
// applies the collective budget ladder, returning true when soft pressure
// asks for the next checkpoint to happen now. Hard pressure does not
// return: the iteration fails with a structured resource.ErrMemoryBudget
// inside mpi.ErrRankFailed, recoverable by the supervisor. The level is
// agreed by Allreduce(OpMax), so every rank responds uniformly even when
// only one is over budget. Collective when enabled; no-op otherwise.
func (f *Fixpoint) pressure(opts Options, iter int) (forceCkpt bool) {
	acct := opts.Acct
	if acct == nil || acct.Budget() <= 0 {
		return false
	}
	words := int64(0)
	for _, r := range f.allRels {
		words += r.MemWords()
	}
	for _, h := range f.heads {
		words += int64(cap(f.cands[h].Words))
	}
	acct.SetComputeWords(words)
	if b, ok := f.Comm.MemPressureNow(iter); ok {
		// Injected pressure fault: synthetic usage, real ladder response.
		acct.AddPhantomBytes(b)
	}
	// One collective agrees on both the worst level and the worst usage:
	// the level rides the top byte so OpMax picks the most pressured rank
	// first, its accounted bytes as the tie-break. Every rank then responds
	// uniformly — and a hard failure's error names the violating usage even
	// on ranks that were individually under budget.
	used := acct.UsedBytes()
	if used > levelPackMask {
		used = levelPackMask
	}
	agreed := f.Comm.Allreduce(uint64(acct.Level())<<levelPackShift|uint64(used), mpi.OpMax)
	lvl := resource.Level(agreed >> levelPackShift)
	worstUsed := int64(agreed & levelPackMask)
	switch lvl {
	case resource.LevelSoft:
		// Shed what is reclaimable (scratch pools and candidate buffers,
		// lazily rebuilt on demand) and bring the next checkpoint forward
		// so a later hard failure loses little work.
		for _, r := range f.allRels {
			r.ReleaseScratch()
		}
		for _, h := range f.heads {
			f.cands[h].Words = nil
		}
		acct.CountPressure(lvl)
		f.emitMemPressure(opts, iter, lvl, acct)
		return true
	case resource.LevelHard:
		acct.CountPressure(lvl)
		f.emitMemPressure(opts, iter, lvl, acct)
		panic(&mpi.ErrRankFailed{
			Rank: f.Comm.Rank(), Op: "mem-budget", Iter: iter,
			Cause: &resource.ErrMemoryBudget{
				Rank: f.Comm.Rank(), Iter: iter,
				Used: worstUsed, Budget: acct.Budget(),
			},
		})
	}
	return false
}

// levelPackShift/levelPackMask pack a pressure level above 56 bits of
// accounted usage for the single-word pressure Allreduce.
const (
	levelPackShift = 56
	levelPackMask  = 1<<levelPackShift - 1
)

// emitMemPressure streams one budget-ladder response: Name carries the
// level, Work the accounted bytes, Bytes the budget.
func (f *Fixpoint) emitMemPressure(opts Options, iter int, lvl resource.Level, acct *resource.Accountant) {
	o := f.MC.Observer()
	if o == nil {
		return
	}
	e := obs.Get()
	e.Kind = obs.KindMemPressure
	e.Rank, e.Stratum, e.Iter = f.Comm.Rank(), opts.Stratum, iter
	e.Name = lvl.String()
	e.Work, e.Bytes = acct.UsedBytes(), acct.Budget()
	e.End = time.Now().UnixNano()
	obs.Emit(o, e)
}

// emitCkptDegraded streams the storage-degradation warning: persistent
// checkpointing failed and the run fell back to in-memory snapshots.
func (f *Fixpoint) emitCkptDegraded(opts Options, iter int, cause error) {
	o := f.MC.Observer()
	if o == nil {
		return
	}
	e := obs.Get()
	e.Kind = obs.KindCkptDegraded
	e.Rank, e.Stratum, e.Iter = f.Comm.Rank(), opts.Stratum, iter
	e.Err = cause.Error()
	e.End = time.Now().UnixNano()
	obs.Emit(o, e)
}

// step executes one fixpoint iteration: run every applicable kernel
// variant, materialize every head, and flip Δ of consumed EDBs. It returns
// the heads' summed routing headers (the previous iteration's changed count),
// keeping each head's sum in f.entered and the step's iterWindow in f.window.
// Collective.
func (f *Fixpoint) step(opts Options, iter int) (entered uint64) {
	// Publish the iteration to the fault layer: injected faults target
	// it and failure reports carry it.
	f.Comm.SetEpoch(iter)
	if rel, mask, ok := f.Comm.StateCorruptNow(iter); ok {
		// Injected in-memory corruption fault: silently flip one stored word
		// of the named relation's shard before the iteration's rules run.
		// The Materialize of the iteration the flip lands in must detect it
		// (Config.Integrity). An empty target shard (nothing to flip yet)
		// keeps the fault pending for the next iteration.
		f.tamperRel, f.tamperMask = rel, mask
	}
	if f.tamperMask != 0 {
		for _, r := range f.allRels {
			if r.Name == f.tamperRel {
				if r.TamperState(f.tamperMask) {
					f.tamperMask = 0
				}
				break
			}
		}
	}
	// Live observability: snapshot wall time and communication counters so
	// the iteration event carries the iteration's deltas. The nil path does
	// no work (the steady-state iteration stays allocation-free).
	observed := f.MC.Observer() != nil
	w := iterWindow{iter: iter}
	if observed {
		w.start = time.Now().UnixNano()
		w.comm, w.net = f.Comm.Stats().Snapshot(), f.Comm.Stats().Net()
	}
	for _, h := range f.heads {
		f.cands[h].Begin(true) // an aggregated head folds chunk by chunk
	}
	for _, r := range f.Rules {
		r.RunVariants(iter, opts.Plan, f.MC, f.cands[r.HeadRel()])
	}
	for i, h := range f.heads {
		f.entered[i] = h.Advance(iter, &f.cands[h].Buffer, true)
		entered += f.entered[i]
	}
	// Flip Δ of body-only relations after their facts have been
	// consumed once.
	for _, b := range f.bodyOnly {
		if b.ChangedLast() > 0 {
			b.Materialize(iter, nil, false)
		}
	}
	if observed {
		w.end = time.Now().UnixNano()
		w.comm = f.Comm.Stats().Snapshot().Sub(w.comm)
		w.net = f.Comm.Stats().Net().Sub(w.net)
	}
	f.window = w
	return entered
}

// iterWindow is one iteration's wall span and communication deltas, kept
// from the end of its step until its changed count is agreed.
type iterWindow struct {
	iter       int
	start, end int64
	comm       mpi.Totals
	net        mpi.NetStats
}

// report hands an iteration's agreed changed count to AfterIteration and,
// with an observer, streams one obs.KindRelation event per head (global
// size, global Δ, per-rank distribution — Fig. 3's skew signal, live) and one
// obs.KindIteration event with the iteration's communication and transport
// deltas. Head counts come from the next step's routing headers; settled
// (agreed by Settle instead) gathers them, so observation must be enabled
// uniformly across ranks (Exec guarantees it in-process).
func (f *Fixpoint) report(opts Options, w iterWindow, changed uint64, settled bool) {
	if opts.AfterIteration != nil {
		opts.AfterIteration(w.iter, changed)
	}
	o := f.MC.Observer()
	if o == nil {
		return
	}
	rank, stratum := f.Comm.Rank(), f.MC.Stratum()
	for i, h := range f.heads {
		counts, hc := h.EnteredCounts(), f.entered[i]
		if settled {
			counts, hc = h.PerRankCounts(), h.ChangedLast()
		}
		total := uint64(0)
		for _, c := range counts {
			total += uint64(c)
		}
		e := obs.Get()
		e.Kind = obs.KindRelation
		e.Rank, e.Stratum, e.Iter = rank, stratum, w.iter
		e.Name = h.Name
		e.Count, e.Changed = total, hc
		e.PerRank = append(e.PerRank, counts...)
		e.End = time.Now().UnixNano()
		obs.Emit(o, e)
	}
	net := w.net
	e := obs.Get()
	e.Kind = obs.KindIteration
	e.Rank, e.Stratum, e.Iter = rank, stratum, w.iter
	e.Changed = changed
	e.Start, e.End = w.start, w.end
	e.Bytes = int64(w.comm.Bytes)
	e.Msgs = int64(w.comm.Calls)
	e.Net = obs.NetStats{
		FramesSent:      net.FramesSent,
		FramesRecv:      net.FramesRecv,
		DialRetries:     net.DialRetries,
		Reconnects:      net.Reconnects,
		Retransmits:     net.Retransmits,
		DupsDropped:     net.DupsDropped,
		HeartbeatMisses: net.HeartbeatMisses,
		CRCErrors:       net.CRCErrors,
		ThrottleStalls:  net.ThrottleStalls,
		// The outbox peak is a gauge, not a delta: Sub passes it through.
		OutboxPeakFrames: net.OutboxPeakFrames,
		PeerBytesSent:    net.PeerBytesSent,
		PeerBytesRecv:    net.PeerBytesRecv,
	}
	obs.Emit(o, e)
}

// run is the shared fixpoint loop, entered at startIter (0 for a fresh run,
// the checkpoint's completed-iteration count for a resume).
//
// An iteration's changed count rides the next step's routing lane headers,
// so that step reports it. A step whose headers sum to zero while no
// body-only relation had Δ moved nothing. If the heads' counts were still
// Unsettled, the iteration before was the last and the step only its
// agreement; otherwise (a fresh start) the step is the last iteration.
func (f *Fixpoint) run(opts Options, startIter int) int {
	for iter := startIter; ; iter++ {
		quiet, held := true, false
		for _, b := range f.bodyOnly {
			quiet = quiet && b.ChangedLast() == 0
		}
		for _, h := range f.heads {
			held = held || h.ChangedLast() == relation.Unsettled
		}
		prev, row := f.window, f.MC.Row(f.Comm.Rank(), iter)
		entered := f.step(opts, iter)
		if held && iter > startIter {
			f.report(opts, prev, entered, false)
		}
		if quiet && entered == 0 {
			for _, h := range f.heads {
				h.SetChangedLast(0)
			}
			if !held {
				f.report(opts, f.window, 0, false)
				return iter + 1
			}
			if iter > 0 {
				f.MC.Fold(f.Comm.Rank(), iter, row)
			}
			return iter
		}
		forceCkpt := f.pressure(opts, iter+1)
		if opts.CheckpointEvery > 0 && opts.Sink != nil &&
			(forceCkpt || (iter+1)%opts.CheckpointEvery == 0) {
			f.checkpoint(opts, iter+1)
		}
		if opts.MaxIters > 0 && iter+1 >= opts.MaxIters {
			changed := uint64(0)
			for _, h := range f.heads {
				h.Settle()
				changed += h.ChangedLast()
			}
			f.report(opts, f.window, changed, true)
			return iter + 1
		}
	}
}
