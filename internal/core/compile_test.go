package core

import (
	"fmt"
	"testing"

	"paralagg/internal/tuple"
)

// FuzzCompiledTerms checks the flat op list a rule compiles to against a
// tree walk of the same terms. Each input builds a rule whose head (one to
// four columns) and conditions (none to two) are random term trees nested
// up to three deep over every op kind — column copies from both body sides
// through random index permutations, constants, add/sub/mul, fadd/fmul,
// Compute calls with zero to three arguments, and Where conditions next to
// Lt/Le/Ne — and evaluates it on several random tuple pairs in a row, so a
// register one match leaves behind cannot leak into the next.
func FuzzCompiledTerms(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 3, 1, 7, 9, 11, 3, 2, 5, 6, 2, 7, 3, 0, 1, 2})
	f.Add([]byte{4, 2, 7, 3, 2, 0, 4, 6, 5, 1, 1, 8, 2, 0, 4, 5, 2, 1, 3, 9, 9, 9, 1, 0, 2, 6, 6, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &termGen{data: data}
		const arity = 3
		var perms [2][]int // stored position → source position, per side
		bound := map[Var]binding{}
		for side := range perms {
			perms[side] = g.perm(arity)
			for pos := 0; pos < arity; pos++ {
				bound[fuzzVar(side, pos)] = binding{side: side, pos: pos}
			}
		}
		stored := func(b binding) binding {
			for i, src := range perms[b.side] {
				if src == b.pos {
					return binding{side: b.side, pos: i}
				}
			}
			panic("unbound source position")
		}
		rule := &Rule{Head: Atom{Rel: "h"}}
		for n := 1 + g.next()%4; len(rule.Head.Terms) < n; {
			rule.Head.Terms = append(rule.Head.Terms, g.term(3))
		}
		for n := g.next() % 3; len(rule.Conds) < n; {
			rule.Conds = append(rule.Conds, g.cond())
		}
		em, err := compileEmit(rule, nil, bound, stored)
		if err != nil {
			t.Fatal(err)
		}
		out := make(tuple.Tuple, len(rule.Head.Terms))
		for round := 0; round < 4; round++ {
			sides := [2]tuple.Tuple{make(tuple.Tuple, arity), make(tuple.Tuple, arity)}
			env := map[Var]tuple.Value{}
			for side, tup := range sides {
				for i, src := range perms[side] {
					tup[i] = g.value()
					env[fuzzVar(side, src)] = tup[i]
				}
			}
			keep := true
			for _, c := range rule.Conds {
				keep = keep && c.Pred(walkTerms(c.Args, env))
			}
			if got := em.emit(sides[0], sides[1], out); got != keep {
				t.Fatalf("round %d: emit kept=%v, tree walk kept=%v", round, got, keep)
			}
			if want := tuple.Tuple(walkTerms(rule.Head.Terms, env)); keep && !out.Equal(want) {
				t.Fatalf("round %d: emit wrote %v, tree walk %v", round, out, want)
			}
		}
	})
}

// walkTerm is the reference evaluator: a recursive walk of the term tree
// that calls every Apply's Fn, the closure the builtins carry for exactly
// this purpose.
func walkTerm(t Term, env map[Var]tuple.Value) tuple.Value {
	switch tt := t.(type) {
	case Const:
		return tuple.Value(tt)
	case Var:
		return env[tt]
	case Apply:
		return tt.Fn(walkTerms(tt.Args, env))
	}
	panic(fmt.Sprintf("unknown term %T", t))
}

func walkTerms(ts []Term, env map[Var]tuple.Value) []tuple.Value {
	vals := make([]tuple.Value, len(ts))
	for i, t := range ts {
		vals[i] = walkTerm(t, env)
	}
	return vals
}

func fuzzVar(side, pos int) Var { return Var(fmt.Sprintf("v%d_%d", side, pos)) }

// termGen draws terms from fuzz bytes; an exhausted input reads as zeros.
type termGen struct{ data []byte }

func (g *termGen) next() int {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return int(b)
}

// value draws a column value: small, or a word whose bits also make an
// interesting float64.
func (g *termGen) value() tuple.Value {
	v := tuple.Value(g.next())
	if v&1 == 1 {
		for i := 0; i < 7; i++ {
			v = v<<8 | tuple.Value(g.next())
		}
	}
	return v
}

// perm draws a permutation of 0..n-1.
func (g *termGen) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.next() % (i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// term draws a term at most depth Applies deep.
func (g *termGen) term(depth int) Term {
	k := g.next() % 8
	if depth == 0 {
		k %= 2
	}
	switch k {
	case 0:
		return fuzzVar(g.next()%2, g.next()%3)
	case 1:
		return Const(g.value())
	case 7:
		args := make([]Term, g.next()%4)
		for i := range args {
			args[i] = g.term(depth - 1)
		}
		return Compute("mix", mix, args...)
	}
	mk := [...]func(a, b Term) Apply{Add, Sub, Mul, FAdd, FMul}[k-2]
	return mk(g.term(depth-1), g.term(depth-1))
}

// cond draws a condition over terms at most three Applies deep: Lt, Le or
// Ne, or a Where over none to three of them.
func (g *termGen) cond() Cond {
	a, b := g.term(3), g.term(3)
	switch g.next() % 4 {
	case 0:
		return Lt(a, b)
	case 1:
		return Le(a, b)
	case 2:
		return Ne(a, b)
	}
	args := []Term{a, b, g.term(3)}[:g.next()%4]
	return Where("odd", func(v []tuple.Value) bool { return mix(v)>>17&1 == 1 }, args...)
}

// mix hashes its arguments and their number.
func mix(v []tuple.Value) tuple.Value {
	h := tuple.Value(len(v))
	for _, x := range v {
		h = h*0x9e3779b97f4a7c15 + x
	}
	return h
}
