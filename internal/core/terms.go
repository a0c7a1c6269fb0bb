// Package core is the declarative layer of the library — the Go counterpart
// of the paper's PARALAGG C++ API. Users declare relations (optionally with
// a recursive aggregator on their dependent columns), write Horn-clause
// rules whose heads may compute arithmetic over body variables, and run the
// program; the compiler stratifies the rules, derives the B-tree indexes
// each join needs, enforces the paper's restriction that aggregated columns
// are never joined upon inside a fixpoint, and lowers everything onto the
// parallel relational-algebra kernels of internal/ra.
package core

import (
	"fmt"
	"math"

	"paralagg/internal/tuple"
)

// Term is a position in an atom: a variable, a constant, or (in rule heads
// only) an applied function of body variables.
type Term interface{ term() }

// Var is a named logic variable.
type Var string

func (Var) term() {}

// Const is a literal column value.
type Const tuple.Value

func (Const) term() {}

// Apply computes a head column from body variables. It may only appear in
// rule heads.
type Apply struct {
	// Name appears in diagnostics and plan dumps.
	Name string
	// Fn receives the evaluated Args in order. The slice is the compiled
	// rule's own scratch, overwritten by the next match: Fn must not keep it.
	Fn func(args []tuple.Value) tuple.Value
	// Args are the inputs; each must be a Var bound in the body or a Const.
	Args []Term
	op   opKind // the arithmetic constructors' inline op; opCall otherwise
}

func (Apply) term() {}

// Add returns a head term computing integer a + b.
func Add(a, b Term) Apply {
	return Apply{Name: "add", Args: []Term{a, b}, op: opAdd,
		Fn: func(v []tuple.Value) tuple.Value { return v[0] + v[1] }}
}

// Sub returns a head term computing integer a - b.
func Sub(a, b Term) Apply {
	return Apply{Name: "sub", Args: []Term{a, b}, op: opSub,
		Fn: func(v []tuple.Value) tuple.Value { return v[0] - v[1] }}
}

// Mul returns a head term computing integer a * b.
func Mul(a, b Term) Apply {
	return Apply{Name: "mul", Args: []Term{a, b}, op: opMul,
		Fn: func(v []tuple.Value) tuple.Value { return v[0] * v[1] }}
}

// FMul returns a head term multiplying two Float64bits-encoded values.
func FMul(a, b Term) Apply {
	return Apply{Name: "fmul", Args: []Term{a, b}, op: opFMul,
		Fn: func(v []tuple.Value) tuple.Value {
			return math.Float64bits(math.Float64frombits(v[0]) * math.Float64frombits(v[1]))
		}}
}

// FAdd returns a head term adding two Float64bits-encoded values.
func FAdd(a, b Term) Apply {
	return Apply{Name: "fadd", Args: []Term{a, b}, op: opFAdd,
		Fn: func(v []tuple.Value) tuple.Value {
			return math.Float64bits(math.Float64frombits(v[0]) + math.Float64frombits(v[1]))
		}}
}

// Compute wraps an arbitrary function as a named head term.
func Compute(name string, fn func([]tuple.Value) tuple.Value, args ...Term) Apply {
	return Apply{Name: name, Fn: fn, Args: args}
}

// Atom is one literal: a relation applied to terms.
type Atom struct {
	Rel   string
	Terms []Term
}

// A builds an atom.
func A(rel string, terms ...Term) Atom { return Atom{Rel: rel, Terms: terms} }

// Cond is a body-level filter (σ) over bound variables and constants.
type Cond struct {
	Name string
	Args []Term
	// Pred receives the evaluated Args under Apply.Fn's rule: the slice is
	// reused between matches.
	Pred func(args []tuple.Value) bool
}

// Lt filters bindings where a < b (integer order).
func Lt(a, b Term) Cond {
	return Cond{Name: "lt", Args: []Term{a, b},
		Pred: func(v []tuple.Value) bool { return v[0] < v[1] }}
}

// Le filters bindings where a <= b (integer order).
func Le(a, b Term) Cond {
	return Cond{Name: "le", Args: []Term{a, b},
		Pred: func(v []tuple.Value) bool { return v[0] <= v[1] }}
}

// Ne filters bindings where a != b.
func Ne(a, b Term) Cond {
	return Cond{Name: "ne", Args: []Term{a, b},
		Pred: func(v []tuple.Value) bool { return v[0] != v[1] }}
}

// Where wraps an arbitrary predicate as a named condition.
func Where(name string, pred func([]tuple.Value) bool, args ...Term) Cond {
	return Cond{Name: name, Args: args, Pred: pred}
}

// Rule is one Horn clause: Head ← Body[0], Body[1], ..., Conds. Bodies with
// three or more atoms are chained through intermediate relations by the
// compiler.
type Rule struct {
	Head  Atom
	Body  []Atom
	Conds []Cond
}

// R builds a rule.
func R(head Atom, body ...Atom) *Rule { return &Rule{Head: head, Body: body} }

// Where attaches filter conditions and returns the rule for chaining.
func (r *Rule) Where(conds ...Cond) *Rule {
	r.Conds = append(r.Conds, conds...)
	return r
}

// String renders the rule Datalog-style for diagnostics.
func (r *Rule) String() string {
	s := atomString(r.Head) + " <- "
	for i, a := range r.Body {
		if i > 0 {
			s += ", "
		}
		s += atomString(a)
	}
	for _, c := range r.Conds {
		s += fmt.Sprintf(", %s(...)", c.Name)
	}
	return s
}

func atomString(a Atom) string {
	s := a.Rel + "("
	for i, t := range a.Terms {
		if i > 0 {
			s += ", "
		}
		switch tt := t.(type) {
		case Var:
			s += string(tt)
		case Const:
			s += fmt.Sprintf("%d", uint64(tt))
		case Apply:
			s += tt.Name + "(...)"
		}
	}
	return s + ")"
}
