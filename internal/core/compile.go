package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"paralagg/internal/lattice"
	"paralagg/internal/ra"
	"paralagg/internal/relation"
	"paralagg/internal/tuple"
)

// binding locates a variable in the stored-order tuples of a compiled rule:
// side 0 is the left (or only) atom, side 1 the right.
type binding struct {
	side int
	pos  int
}

// check is an emit-time filter: the stored column must equal either a
// constant or another bound column (duplicate-variable equality).
type check struct {
	side, pos int
	isConst   bool
	val       tuple.Value
	other     binding
}

// atomBindings scans an atom's terms, returning the first-occurrence
// binding of each variable (in source positions) and the emit-time checks
// for constants and duplicate variables.
func atomBindings(a Atom, side int, bound map[Var]binding) (checks []check) {
	for pos, t := range a.Terms {
		switch tt := t.(type) {
		case Const:
			checks = append(checks, check{side: side, pos: pos, isConst: true, val: tuple.Value(tt)})
		case Var:
			if prev, ok := bound[tt]; ok {
				checks = append(checks, check{side: side, pos: pos, other: prev})
			} else {
				bound[tt] = binding{side: side, pos: pos}
			}
		}
	}
	return checks
}

// indexFor finds or registers the index a join side needs: join-variable
// source positions first (in join order), then the remaining columns in
// ascending source order.
func indexFor(rel *relation.Relation, joinPos []int) (*relation.Index, error) {
	used := map[int]bool{}
	perm := append([]int(nil), joinPos...)
	for _, p := range joinPos {
		used[p] = true
	}
	for c := 0; c < rel.Arity; c++ {
		if !used[c] {
			perm = append(perm, c)
		}
	}
	if ix := rel.FindIndex(perm, len(joinPos)); ix != nil {
		return ix, nil
	}
	return rel.AddIndex(perm, len(joinPos))
}

// feed names the body atom and canonical column a rule copies into one head
// key column; atom is -1 when the head term there is not a body variable.
type feed struct{ atom, col int }

// keyFeeds returns, for each of a rule's first indep head columns, where
// the rule reads the value it copies there: every derivation of a head key
// k holds k[j] in column feeds[j].col of atom feeds[j].atom.
func keyFeeds(r *Rule, indep int) []feed {
	feeds := make([]feed, indep)
	for j := range feeds {
		feeds[j] = feed{atom: -1}
		v, ok := r.Head.Terms[j].(Var)
		for a := 0; ok && a < len(r.Body); a++ {
			if c := slices.Index(r.Body[a].Terms, Term(v)); c >= 0 {
				feeds[j], ok = feed{atom: a, col: c}, false
			}
		}
	}
	return feeds
}

// boundsRetraction reports whether a delete may keep a key of an
// aggregated head whose value is strictly better than a retracted
// derivation's (relation.BoundRetraction): it holds when no rule can derive
// a value better than that of a tuple it reads from the stratum's heads, so
// every value a key holds is founded on derivations of values at least as
// good. heads names the stratum's heads; a body atom of one of them must be
// aggregated over the head's selective lattice, and each dependent column
// of the head must be no better than that atom's (noBetter).
func boundsRetraction(rules []*Rule, decls map[string]*Decl, heads map[string]bool) bool {
	for _, r := range rules {
		hd := decls[r.Head.Rel]
		for _, a := range r.Body {
			if !heads[a.Rel] {
				continue
			}
			bd := decls[a.Rel]
			if hd.Agg == nil || bd.Agg == nil || !lattice.Selective(hd.Agg) || !lattice.Selective(bd.Agg) || hd.Agg != bd.Agg {
				return false
			}
			for i := 0; i < hd.Agg.Width(); i++ {
				b, ok := a.Terms[bd.Indep+i].(Var)
				if !ok || !noBetter(hd.Agg, r.Head.Terms[hd.Indep+i], b) {
					return false
				}
			}
		}
	}
	return true
}

// noBetter reports whether head term h can never be better under agg than
// the body value bound to b: b itself or, where smaller integers are better
// (Min, LexMin2, column by column), b plus anything — integer addition that
// does not wrap.
func noBetter(agg lattice.Aggregator, h Term, b Var) bool {
	if v, ok := h.(Var); ok {
		return v == b
	}
	ap, ok := h.(Apply)
	switch agg.(type) {
	case lattice.Min, lattice.LexMin2:
		return ok && ap.op == opAdd && (ap.Args[0] == Term(b) || ap.Args[1] == Term(b))
	}
	return false
}

// compileRule lowers a validated 1- or 2-atom rule onto a kernel. rels maps
// relation names to this rank's handles.
func compileRule(r *Rule, decls map[string]*Decl, rels map[string]*relation.Relation) (ra.Rule, error) {
	switch len(r.Body) {
	case 1:
		return compileCopy(r, rels)
	case 2:
		return compileJoin(r, decls, rels)
	}
	return nil, fmt.Errorf("core: rule %s not rewritten to binary form", r)
}

// compileCopy lowers a single-atom rule to a Δ-scan kernel over the source's
// canonical index (identity permutation, so stored order equals source
// order). It finds or registers that index as a join finds its own, so an
// aggregated relation holds one only when a rule reads it this way.
func compileCopy(r *Rule, rels map[string]*relation.Relation) (ra.Rule, error) {
	src := rels[r.Body[0].Rel]
	head := rels[r.Head.Rel]
	bound := map[Var]binding{}
	checks := atomBindings(r.Body[0], 0, bound)
	ident := func(b binding) binding { return b }

	em, err := compileEmit(r, checks, bound, ident)
	if err != nil {
		return nil, err
	}
	key := make([]int, src.Key)
	for i := range key {
		key[i] = i
	}
	canon, err := indexFor(src, key)
	if err != nil {
		return nil, err
	}
	return &ra.Copy{
		Name:   r.String(),
		Src:    canon,
		SrcRel: src,
		Head:   head,
		Emit:   em.emit,
	}, nil
}

// compileJoin lowers a two-atom rule to a distributed binary-join kernel,
// deriving (and registering) the index each side needs and enforcing the
// paper's restriction that aggregated columns are never join columns.
func compileJoin(r *Rule, decls map[string]*Decl, rels map[string]*relation.Relation) (ra.Rule, error) {
	left, right := r.Body[0], r.Body[1]
	lrel, rrel := rels[left.Rel], rels[right.Rel]

	lbound := map[Var]binding{}
	lchecks := atomBindings(left, 0, lbound)
	rbound := map[Var]binding{}
	rchecks := atomBindings(right, 1, rbound)

	// Join variables: bound on both sides, ordered by left position.
	type jv struct {
		v    Var
		lpos int
		rpos int
	}
	var joins []jv
	for v, lb := range lbound {
		if rb, ok := rbound[v]; ok {
			joins = append(joins, jv{v: v, lpos: lb.pos, rpos: rb.pos})
		}
	}
	sort.Slice(joins, func(i, j int) bool { return joins[i].lpos < joins[j].lpos })
	if len(joins) == 0 {
		return nil, fmt.Errorf("core: rule %s: atoms %s and %s share no variable (cartesian products are not supported)",
			r, left.Rel, right.Rel)
	}

	// The paper's restriction (§III-A): aggregated columns are never joined
	// upon within a fixpoint.
	for _, d := range []struct {
		decl *Decl
		pos  func(jv) int
		atom Atom
	}{
		{decls[left.Rel], func(j jv) int { return j.lpos }, left},
		{decls[right.Rel], func(j jv) int { return j.rpos }, right},
	} {
		if d.decl.Agg == nil {
			continue
		}
		for _, j := range joins {
			if d.pos(j) >= d.decl.Indep {
				return nil, fmt.Errorf("core: rule %s: variable %s joins on an aggregated column of %s; "+
					"recursive aggregates may not be joined on their dependent columns", r, j.v, d.atom.Rel)
			}
		}
	}

	lpos := make([]int, len(joins))
	rpos := make([]int, len(joins))
	for i, j := range joins {
		lpos[i] = j.lpos
		rpos[i] = j.rpos
	}
	lix, err := indexFor(lrel, lpos)
	if err != nil {
		return nil, fmt.Errorf("core: rule %s: %v", r, err)
	}
	rix, err := indexFor(rrel, rpos)
	if err != nil {
		return nil, fmt.Errorf("core: rule %s: %v", r, err)
	}

	// Translate source positions to stored positions through each side's
	// permutation.
	linv := invert(lix.Perm)
	rinv := invert(rix.Perm)
	stored := func(b binding) binding {
		if b.side == 0 {
			return binding{side: 0, pos: linv[b.pos]}
		}
		return binding{side: 1, pos: rinv[b.pos]}
	}
	merged := map[Var]binding{}
	for v, b := range lbound {
		merged[v] = b
	}
	for v, b := range rbound {
		if _, dup := merged[v]; !dup {
			merged[v] = b
		}
	}
	var checks []check
	for _, c := range lchecks {
		checks = append(checks, storedCheck(c, stored))
	}
	for _, c := range rchecks {
		checks = append(checks, storedCheck(c, stored))
	}

	em, err := compileEmit(r, checks, merged, stored)
	if err != nil {
		return nil, err
	}
	return &ra.Join{
		Name:     r.String(),
		Left:     lix,
		Right:    rix,
		LeftRel:  lrel,
		RightRel: rrel,
		Head:     rels[r.Head.Rel],
		JK:       len(joins),
		Emit:     em.emit,
	}, nil
}

// emitter is a rule's compiled per-match work: the equality checks, then
// one flat op list over the rule's own registers (a rank evaluates one match
// at a time). Registers 0..arity-1 hold the head tuple.
type emitter struct {
	checks []check
	ops    []op
	regs   []tuple.Value
}

// opKind is what one op does. opCall is the zero value, so an Apply built
// by hand calls its Fn.
type opKind uint8

const (
	opCall  opKind = iota // regs[dst] = fn(regs[a:b]): Compute
	opWhere               // filter the match unless pred(regs[a:b]): Where
	opLeft                // regs[dst] = left[a]
	opRight               // regs[dst] = right[a] (opLeft + side)
	opConst               // regs[dst] = val
	opAdd                 // regs[dst] = regs[a] + regs[a+1]
	opSub                 // regs[dst] = regs[a] - regs[a+1]
	opMul                 // regs[dst] = regs[a] * regs[a+1]
	opFAdd                // the same over Float64bits-encoded values
	opFMul
)

// op is one step of a compiled rule.
type op struct {
	kind      opKind
	dst, a, b int
	val       tuple.Value
	fn        func([]tuple.Value) tuple.Value
	pred      func([]tuple.Value) bool
}

// emit implements ra.Emitter: one loop over the op list fills the kernel's
// slot in place, so a derived tuple costs no allocation.
func (em *emitter) emit(l, r, out tuple.Tuple) bool {
	if len(em.checks) > 0 && !passChecks(em.checks, l, r) {
		return false
	}
	regs := em.regs
	for i := range em.ops {
		o := &em.ops[i]
		switch o.kind {
		case opLeft:
			regs[o.dst] = l[o.a]
		case opRight:
			regs[o.dst] = r[o.a]
		case opConst:
			regs[o.dst] = o.val
		case opAdd:
			regs[o.dst] = regs[o.a] + regs[o.a+1]
		case opSub:
			regs[o.dst] = regs[o.a] - regs[o.a+1]
		case opMul:
			regs[o.dst] = regs[o.a] * regs[o.a+1]
		case opFAdd:
			regs[o.dst] = math.Float64bits(math.Float64frombits(regs[o.a]) + math.Float64frombits(regs[o.a+1]))
		case opFMul:
			regs[o.dst] = math.Float64bits(math.Float64frombits(regs[o.a]) * math.Float64frombits(regs[o.a+1]))
		case opCall:
			regs[o.dst] = o.fn(regs[o.a:o.b])
		case opWhere:
			if !o.pred(regs[o.a:o.b]) {
				return false
			}
		}
	}
	copy(out, regs)
	return true
}

// compileEmit lowers a rule's conditions, then its head terms, onto one op
// list, resolving variables against stored-order tuples.
func compileEmit(r *Rule, checks []check, bound map[Var]binding, stored func(binding) binding) (*emitter, error) {
	em := &emitter{checks: checks}
	nregs := len(r.Head.Terms)
	var term func(t Term, dst int) error
	// args compiles terms into a fresh block of registers, returning its first.
	args := func(ts []Term) (int, error) {
		a := nregs
		nregs += len(ts)
		for i, t := range ts {
			if err := term(t, a+i); err != nil {
				return 0, err
			}
		}
		return a, nil
	}
	term = func(t Term, dst int) error {
		o := op{dst: dst}
		switch tt := t.(type) {
		case Const:
			o.kind, o.val = opConst, tuple.Value(tt)
		case Var:
			b, ok := bound[tt]
			if !ok {
				return fmt.Errorf("core: unbound variable %s", tt)
			}
			sb := stored(b)
			o.kind, o.a = opLeft+opKind(sb.side), sb.pos
		case Apply:
			a, err := args(tt.Args)
			if err != nil {
				return err
			}
			o.kind, o.a, o.b, o.fn = tt.op, a, a+len(tt.Args), tt.Fn
			if len(tt.Args) != 2 {
				o.kind = opCall
			}
		default:
			return fmt.Errorf("core: unknown term type %T", t)
		}
		em.ops = append(em.ops, o)
		return nil
	}
	for _, c := range r.Conds {
		a, err := args(c.Args)
		if err != nil {
			return nil, fmt.Errorf("core: rule %s: condition %s: %v", r, c.Name, err)
		}
		em.ops = append(em.ops, op{kind: opWhere, a: a, b: a + len(c.Args), pred: c.Pred})
	}
	for i, t := range r.Head.Terms {
		if err := term(t, i); err != nil {
			return nil, fmt.Errorf("core: rule %s: %v", r, err)
		}
	}
	em.regs = make([]tuple.Value, nregs)
	return em, nil
}

func storedCheck(c check, stored func(binding) binding) check {
	sb := stored(binding{side: c.side, pos: c.pos})
	out := check{side: sb.side, pos: sb.pos, isConst: c.isConst, val: c.val}
	if !c.isConst {
		out.other = stored(c.other)
	}
	return out
}

func passChecks(checks []check, l, r tuple.Tuple) bool {
	at := func(b int, pos int) tuple.Value {
		if b == 0 {
			return l[pos]
		}
		return r[pos]
	}
	for _, c := range checks {
		got := at(c.side, c.pos)
		if c.isConst {
			if got != c.val {
				return false
			}
		} else if got != at(c.other.side, c.other.pos) {
			return false
		}
	}
	return true
}

func invert(perm []int) []int {
	inv := make([]int, len(perm))
	for i, c := range perm {
		inv[c] = i
	}
	return inv
}

// rewriteRules chains every rule with three or more body atoms through
// intermediate set relations, returning the binary/unary rule list and the
// intermediate declarations. Conditions attach to the earliest stage where
// all their variables are bound; later stages carry exactly the variables
// still needed.
func rewriteRules(rules []*Rule) ([]*Rule, []*Decl, error) {
	var out []*Rule
	var extra []*Decl
	tmpN := 0
	for _, r := range rules {
		if len(r.Body) <= 2 {
			out = append(out, r)
			continue
		}
		// Variables needed by the head or conditions (Applies may nest).
		needed := map[Var]bool{}
		var collect func(t Term)
		collect = func(t Term) {
			switch tt := t.(type) {
			case Var:
				needed[tt] = true
			case Apply:
				for _, a := range tt.Args {
					collect(a)
				}
			}
		}
		for _, t := range r.Head.Terms {
			collect(t)
		}
		for _, c := range r.Conds {
			for _, t := range c.Args {
				collect(t)
			}
		}
		atomVars := func(a Atom) map[Var]bool {
			m := map[Var]bool{}
			for _, t := range a.Terms {
				if v, ok := t.(Var); ok {
					m[v] = true
				}
			}
			return m
		}
		condReady := make([]bool, len(r.Conds))

		cur := r.Body[0]
		bound := atomVars(cur)
		for k := 1; k < len(r.Body); k++ {
			next := r.Body[k]
			for v := range atomVars(next) {
				bound[v] = true
			}
			// Conditions evaluable after joining `next`.
			var conds []Cond
			for ci, c := range r.Conds {
				if condReady[ci] {
					continue
				}
				ready := true
				for _, t := range c.Args {
					if v, ok := t.(Var); ok && !bound[v] {
						ready = false
						break
					}
				}
				if ready {
					condReady[ci] = true
					conds = append(conds, c)
				}
			}
			if k == len(r.Body)-1 {
				out = append(out, &Rule{Head: r.Head, Body: []Atom{cur, next}, Conds: conds})
				break
			}
			// Keep variables needed later: by the head/conds or by
			// remaining atoms.
			keep := map[Var]bool{}
			for v := range needed {
				if bound[v] {
					keep[v] = true
				}
			}
			for kk := k + 1; kk < len(r.Body); kk++ {
				for v := range atomVars(r.Body[kk]) {
					if bound[v] {
						keep[v] = true
					}
				}
			}
			vars := make([]Var, 0, len(keep))
			for v := range keep {
				vars = append(vars, v)
			}
			sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
			if len(vars) == 0 {
				return nil, nil, fmt.Errorf("core: rule %s: intermediate stage binds no needed variables", r)
			}
			name := fmt.Sprintf("__tmp%d", tmpN)
			tmpN++
			d := &Decl{Name: name, Arity: len(vars), Indep: len(vars), Key: 1}
			extra = append(extra, d)
			terms := make([]Term, len(vars))
			for i, v := range vars {
				terms[i] = v
			}
			out = append(out, &Rule{Head: Atom{Rel: name, Terms: terms}, Body: []Atom{cur, next}, Conds: conds})
			cur = Atom{Rel: name, Terms: terms}
			bound = atomVars(cur)
		}
	}
	return out, extra, nil
}
