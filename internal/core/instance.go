package core

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/obs"
	"paralagg/internal/ra"
	"paralagg/internal/relation"
	"paralagg/internal/resource"
	"paralagg/internal/tuple"
	"paralagg/internal/wordmap"
)

// Config tunes an instantiated program.
type Config struct {
	// Subs is the sub-bucket count of every relation: the split width of
	// a heavy join key, which each relation decides from its first bulk
	// load (relation.Config.Subs), fixed for the run; 1 disables it.
	Subs int
	// Plan selects the join-layout strategy.
	Plan ra.PlanMode
	// MaxIters bounds each stratum's fixpoint (0 = run to fixpoint).
	MaxIters int
	// CheckpointEvery, with Checkpoints set, snapshots every relation of
	// the program every CheckpointEvery fixpoint iterations so a crashed
	// run can Resume. 0 disables checkpointing.
	CheckpointEvery int
	// Checkpoints stores the per-rank snapshots.
	Checkpoints ra.CheckpointSink
	// Integrity turns on online divergence detection: every relation
	// fingerprints its state each iteration and agrees the digests in one
	// AllreduceVec. Must be identical on all ranks.
	Integrity bool
	// Acct is this rank's memory accountant; with a positive budget every
	// stratum's fixpoint runs the pressure ladder (see ra.Options.Acct).
	// Whether it is set must be identical on all ranks.
	Acct *resource.Accountant
}

// Instance is one rank's executable form of a Program: relations created,
// rules stratified and compiled onto kernels. Every rank of the world must
// Instantiate the identical program with the identical config, then perform
// the same Load and Run calls.
type Instance struct {
	comm *mpi.Comm
	mc   *metrics.Collector
	rels map[string]*relation.Relation
	// shadows maps every declared relation a rule derives into, and every
	// aggregated relation, to its base shadow: the set relation
	// __base.<name> (named like the rewrite's __tmp%d intermediates)
	// holding exactly that relation's base facts at their hash owners. It is
	// in no stratum and not reachable through Relation. A base-only set
	// relation has no shadow: its FULL is its base-fact set.
	shadows map[string]*relation.Relation
	// derived lists, in name order, the relations whose FULL is not their
	// base-fact set — every rule head and every shadowed relation. The
	// from-scratch fallback clears exactly these.
	derived []*relation.Relation
	strata  []*stratum
}

type stratum struct {
	fix *ra.Fixpoint
	// inputs are the relations read but not written by this stratum, in
	// name order; their Δ is re-seeded before the stratum runs.
	inputs []*relation.Relation
	// rules are the stratum's rules after rewriting, which the first
	// delete's reseed plans from.
	rules []*Rule
	plan  *seedPlan
}

// seedPlan is what reseed needs of a stratum, planned on its first delete.
type seedPlan struct {
	// reads are all the relations the stratum's rules read, in name order;
	// heads are the relations they write, in rule order.
	reads, heads []*relation.Relation
	rules        []seedRule
	// Scratch kept across deletes: this rank's dropped head keys and, per
	// head and key column, the distinct values dropped there.
	mine    []mpi.Word
	dropped [][]*wordmap.Map
}

// seedRule is what reseed needs of one rule: its head (an index into
// seedPlan.heads), its body relations in atom order and where it reads
// each head key column.
type seedRule struct {
	head   int
	bodies []*relation.Relation
	feeds  []feed
}

// Instantiate validates, rewrites, stratifies, and compiles the program for
// this rank. It registers every index the rules need, so it must run before
// facts are loaded.
func (p *Program) Instantiate(comm *mpi.Comm, mc *metrics.Collector, cfg Config) (*Instance, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	rules, extraDecls, err := rewriteRules(p.rules)
	if err != nil {
		return nil, err
	}
	decls := make(map[string]*Decl, len(p.decls)+len(extraDecls))
	var names []string
	for n, d := range p.decls {
		decls[n] = d
		names = append(names, n)
	}
	for _, d := range extraDecls {
		decls[d.Name] = d
		names = append(names, d.Name)
	}
	sort.Strings(names)

	heads := map[string]bool{}
	for _, r := range rules {
		heads[r.Head.Rel] = true
	}
	in := &Instance{comm: comm, mc: mc, rels: make(map[string]*relation.Relation, len(names)),
		shadows: map[string]*relation.Relation{}}
	// A set relation no rule derives, and every shadow, changes only by
	// whole batches: its indexes keep FULL frozen (relation.Config.Base).
	for _, n := range names {
		d := decls[n]
		rel, err := relation.New(relation.Schema{
			Name: d.Name, Arity: d.Arity, Indep: d.Indep, Key: d.Key, Agg: d.Agg,
		}, comm, mc, relation.Config{Subs: cfg.Subs, Integrity: cfg.Integrity, Base: !heads[n] && d.Agg == nil})
		if err != nil {
			return nil, err
		}
		in.rels[n] = rel
		if p.decls[n] != nil && (heads[n] || d.Agg != nil) {
			sh, err := relation.New(relation.Schema{
				Name: "__base." + n, Arity: d.Arity, Indep: d.Arity, Key: d.Key,
			}, comm, mc, relation.Config{Subs: 1, Integrity: cfg.Integrity, Base: true})
			if err != nil {
				return nil, err
			}
			in.shadows[n] = sh
		}
		if heads[n] || in.shadows[n] != nil {
			in.derived = append(in.derived, rel)
		}
	}

	// joinIndexes records, per relation, the index of every join reading it.
	joinIndexes := map[*relation.Relation][]*relation.Index{}
	strata := p.stratify(rules)
	for _, ruleSet := range strata {
		kernels := make([]ra.Rule, 0, len(ruleSet))
		heads := map[string]bool{}
		bodies := map[string]bool{}
		for _, r := range ruleSet {
			k, err := compileRule(r, decls, in.rels)
			if err != nil {
				return nil, err
			}
			kernels = append(kernels, k)
			if j, ok := k.(*ra.Join); ok {
				joinIndexes[j.LeftRel] = append(joinIndexes[j.LeftRel], j.Left)
				joinIndexes[j.RightRel] = append(joinIndexes[j.RightRel], j.Right)
			}
			heads[r.Head.Rel] = true
			for _, a := range r.Body {
				bodies[a.Rel] = true
			}
		}
		if boundsRetraction(ruleSet, decls, heads) {
			for h := range heads {
				in.rels[h].BoundRetraction()
			}
		}
		st := &stratum{fix: ra.NewFixpoint(comm, mc, kernels...), rules: ruleSet}
		var inputNames []string
		for b := range bodies {
			if !heads[b] {
				inputNames = append(inputNames, b)
			}
		}
		sort.Strings(inputNames)
		for _, n := range inputNames {
			st.inputs = append(st.inputs, in.rels[n])
		}
		in.strata = append(in.strata, st)
	}
	// An aggregated relation every join reads on one key is placed on that
	// key (§III-A); joined on two keys, it keeps its replica exchange.
	for rel, ixs := range joinIndexes {
		if rel.Agg != nil && !slices.ContainsFunc(ixs, func(ix *relation.Index) bool { return ix != ixs[0] }) {
			rel.PlaceOn(ixs[0])
		}
	}
	return in, nil
}

// Relation returns this rank's handle on a relation, or nil if undeclared.
func (in *Instance) Relation(name string) *relation.Relation { return in.rels[name] }

// Load feeds base facts (canonical column order) into a relation through
// the collective materialization path — a shadowed relation through its
// shadow and then itself. Each rank passes its own share; the union across
// ranks is loaded.
func (in *Instance) Load(name string, facts *tuple.Buffer) error {
	rel := in.rels[name]
	if rel == nil {
		return fmt.Errorf("core: load into undeclared relation %s", name)
	}
	if sh := in.shadows[name]; sh != nil {
		sh.LoadFacts(facts)
		sh.ClearDelta()
	}
	rel.LoadFacts(facts)
	return nil
}

// RunStats summarizes a program run.
type RunStats struct {
	// StratumIters is the iteration count of each stratum's fixpoint.
	StratumIters []int
	// TotalIters sums them.
	TotalIters int
}

// options builds the fixpoint options for one stratum, wiring checkpoint
// settings through when configured.
func (in *Instance) options(cfg Config, stratum int) ra.Options {
	opts := ra.Options{Plan: cfg.Plan, MaxIters: cfg.MaxIters, Stratum: stratum, Acct: cfg.Acct}
	if cfg.Checkpoints != nil {
		// CheckpointEvery only gates periodic saves; a sink alone still
		// supports Resume (restore without further checkpointing).
		opts.CheckpointEvery = cfg.CheckpointEvery
		opts.Sink = cfg.Checkpoints
		opts.Stratum = stratum
		opts.SnapshotRels = in.snapshotRels()
	}
	return opts
}

// snapshotRels returns every relation of the program in name order, then
// every base shadow in the order of the relations they shadow — the set a
// checkpoint captures. Snapshotting the whole program (not just the running
// stratum's relations) lets Resume skip completed strata outright and wipe
// any partially mutated later state; the shadows carry the base facts a
// later deletion re-derives from.
func (in *Instance) snapshotRels() []*relation.Relation {
	rels := make([]*relation.Relation, 0, len(in.rels)+len(in.shadows))
	for _, n := range sortedKeys(in.rels) {
		rels = append(rels, in.rels[n])
	}
	for _, n := range sortedKeys(in.shadows) {
		rels = append(rels, in.shadows[n])
	}
	return rels
}

// Run executes every stratum in dependency order, re-seeding Δ of each
// stratum's input relations so rules see previously computed tuples as
// fresh. It is collective.
func (in *Instance) Run(cfg Config) RunStats {
	stats, _ := in.runFrom(cfg, 0, nil) // only a restore can fail
	return stats
}

// Resume restarts a crashed run from the latest agreed checkpoint: strata
// before the checkpoint's are skipped (their results are inside the
// snapshot), the checkpointed stratum continues from its saved iteration —
// restoring every relation wholesale, so base facts may be reloaded (or
// not) before calling Resume — and later strata run normally. Skipped
// strata report 0 iterations in the returned stats. The restore is
// world-size independent (see ra.Fixpoint.Resume). It is collective and
// returns ra.ErrNoCheckpoint when the sink is empty.
func (in *Instance) Resume(cfg Config) (RunStats, error) {
	if cfg.Checkpoints == nil {
		return RunStats{}, fmt.Errorf("core: Resume needs Config.Checkpoints")
	}
	pos, ok, err := ra.AgreedPosition(in.comm, cfg.Checkpoints)
	if err != nil {
		return RunStats{}, err
	}
	if !ok {
		return RunStats{}, ra.ErrNoCheckpoint
	}
	return in.runFrom(cfg, pos.Stratum, func(fix *ra.Fixpoint, opts ra.Options) (int, error) {
		return fix.Resume(opts, pos)
	})
}

// Rejoin re-enters a crashed-and-replaced rank into a still-running gang
// (hot replacement). cp is this rank's own checkpoint, read rank-locally
// with ra.PeekRejoin before the transport was built so its wire marks could
// seed the frame counters. No collective agreement runs — the survivors
// never tore down, so the only valid position is the one this rank saved.
// Strata before the checkpoint's report 0 iterations; the replayed stratum
// and any later ones run as usual.
func (in *Instance) Rejoin(cfg Config, cp ra.Checkpoint) (RunStats, error) {
	if cfg.Checkpoints == nil {
		return RunStats{}, fmt.Errorf("core: Rejoin needs Config.Checkpoints")
	}
	return in.runFrom(cfg, cp.Stratum, func(fix *ra.Fixpoint, opts ra.Options) (int, error) {
		return fix.Rejoin(opts, cp)
	})
}

// runFrom is the stratum loop. With restore nil every stratum from first on
// runs fresh: Δ of its inputs re-seeded, then the fixpoint. With restore set,
// strata before first are skipped and report 0 iterations and stratum first
// is entered through restore instead — the restored snapshot carries the
// correct Δ state for every relation, so that stratum must not ResetDelta
// its inputs.
func (in *Instance) runFrom(cfg Config, first int, restore func(*ra.Fixpoint, ra.Options) (int, error)) (RunStats, error) {
	var stats RunStats
	if restore != nil && (first < 0 || first >= len(in.strata)) {
		return stats, fmt.Errorf("core: checkpoint names stratum %d, program has %d strata", first, len(in.strata))
	}
	for s := 0; s < first; s++ {
		stats.StratumIters = append(stats.StratumIters, 0)
	}
	for s := first; s < len(in.strata); s++ {
		st := in.strata[s]
		in.enterStratum(s)
		var n int
		if s == first && restore != nil {
			var err error
			if n, err = restore(st.fix, in.options(cfg, s)); err != nil {
				return stats, err
			}
		} else {
			for _, input := range st.inputs {
				input.ResetDelta()
			}
			n = st.fix.Run(in.options(cfg, s))
		}
		stats.StratumIters = append(stats.StratumIters, n)
		stats.TotalIters += n
	}
	return stats, nil
}

// enterStratum publishes the stratum about to run so live events are
// attributed to it, and streams an obs.KindStratumStart event.
func (in *Instance) enterStratum(s int) {
	in.mc.SetStratum(s)
	if o := in.mc.Observer(); o != nil {
		e := obs.Get()
		e.Kind = obs.KindStratumStart
		e.Rank, e.Stratum = in.comm.Rank(), s
		e.End = time.Now().UnixNano()
		obs.Emit(o, e)
	}
}

// Strata returns the number of strata the program compiled to.
func (in *Instance) Strata() int { return len(in.strata) }
