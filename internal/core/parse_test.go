package core

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paralagg/internal/metrics"
	"paralagg/internal/mpi"
	"paralagg/internal/ra"
	"paralagg/internal/tuple"
)

func TestParseDeclarations(t *testing.T) {
	p, err := Parse(`
% a comment
.set edge 3 key=1
.agg spath 2 min
`)
	if err != nil {
		t.Fatal(err)
	}
	if d := p.Decl("edge"); d == nil || d.Arity != 3 || d.Key != 1 || d.Agg != nil {
		t.Fatalf("edge decl = %+v", d)
	}
	if d := p.Decl("spath"); d == nil || d.Arity != 3 || d.Indep != 2 || d.Agg == nil {
		t.Fatalf("spath decl = %+v", d)
	}
}

func TestParseRuleShapes(t *testing.T) {
	p, err := Parse(`
.set edge 2 key=1
.set up 2 key=1
up(X, Y) :- edge(X, Y), lt(X, Y).
`)
	if err != nil {
		t.Fatal(err)
	}
	rules := p.Rules()
	if len(rules) != 1 {
		t.Fatalf("rules = %d", len(rules))
	}
	r := rules[0]
	if r.Head.Rel != "up" || len(r.Body) != 1 || len(r.Conds) != 1 || r.Conds[0].Name != "lt" {
		t.Fatalf("rule = %s (%d conds)", r, len(r.Conds))
	}
}

func TestParseMultilineRule(t *testing.T) {
	p, err := Parse(`
.agg spath 2 min
.set edge 3 key=1
spath(F, T, add(L, W)) :-
    spath(F, M, L),
    edge(M, T, W).
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Rules()) != 1 {
		t.Fatalf("rules = %d", len(p.Rules()))
	}
	head := p.Rules()[0].Head
	if _, ok := head.Terms[2].(Apply); !ok {
		t.Fatalf("head term 2 = %T", head.Terms[2])
	}
}

func TestParseLiterals(t *testing.T) {
	p, err := Parse(`
.set r 3 key=1
.set s 1 key=1
r(X, 7, 1.5) :- s(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	terms := p.Rules()[0].Head.Terms
	if c, ok := terms[1].(Const); !ok || uint64(c) != 7 {
		t.Fatalf("int literal = %#v", terms[1])
	}
	if c, ok := terms[2].(Const); !ok || math.Float64frombits(uint64(c)) != 1.5 {
		t.Fatalf("float literal = %#v", terms[2])
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown decl", ".foo bar 1", "unknown declaration"},
		{"bad arity", ".set e x", "bad arity"},
		{"unknown agg", ".agg a 1 weird", "unknown aggregator"},
		{"bad set option", ".set e 2 nope=1", "unknown .set option"},
		{"fact text", ".set e 2 key=1\ne(1, 2).", "facts are loaded via the API"},
		{"unterminated", ".set e 2 key=1\nh(X) :- e(X, Y)", "not terminated"},
		{"decl in rule", ".set e 2 key=1\nh(X) :- e(X, Y),\n.set q 1", "unterminated rule"},
		{"unbalanced", ".set e 2 key=1\nh(X :- e(X, Y).", "malformed atom"},
		{"unknown fn", ".set e 2 key=1\nh(q(X)) :- e(X, Y).", "unknown function"},
		{"builtin arity", ".set e 2 key=1\nh(X) :- e(X, Y), lt(X).", "two arguments"},
		{"only builtins", ".set e 2 key=1\nh(X) :- lt(X, X).", "only builtins"},
		{"apply in body", ".set e 2 key=1\nh(X) :- e(add(X, X), Y).", "computed term"},
		{"empty args", ".set e 2 key=1\nh() :- e(X, Y).", "no arguments"},
		{"bad term", ".set e 2 key=1\nh(X) :- e(X, 9y).", "bad integer literal"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse(c.src)
			if err == nil {
				t.Fatal("no error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestParsedSSSPExecutes runs the canonical SSSP program from source text
// and checks a known distance.
func TestParsedSSSPExecutes(t *testing.T) {
	p, err := Parse(`
% the paper's SSSP (section II-C)
.set edge 3 key=1
.agg spath 2 min
spath(F, T, add(L, W)) :- spath(F, M, L), edge(M, T, W).
`)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorld(3)
	err = w.Run(func(c *mpi.Comm) error {
		mc := metrics.NewCollector(3)
		cfg := Config{Plan: ra.PlanDynamic}
		in, err := p.Instantiate(c, mc, cfg)
		if err != nil {
			return err
		}
		// 0 -2-> 1 -3-> 2 and a worse direct edge 0 -9-> 2.
		edges := [][3]uint64{{0, 1, 2}, {1, 2, 3}, {0, 2, 9}}
		in.Relation("edge").LoadShare(len(edges), func(i int, emit func(tuple.Tuple)) {
			emit(tuple.Tuple{edges[i][0], edges[i][1], edges[i][2]})
		})
		seed := tuple.NewBuffer(3, 1)
		if c.Rank() == 0 {
			seed.Append(tuple.Tuple{0, 0, 0})
		}
		in.Load("spath", seed)
		in.Run(cfg)

		var local uint64
		if v, ok := in.Relation("spath").Lookup(tuple.Tuple{0, 2}); ok {
			local = v[0]
		}
		if g := c.Allreduce(local, mpi.OpMax); g != 5 {
			return fmt.Errorf("dist(0,2) = %d, want 5", g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExplain(t *testing.T) {
	p, err := Parse(`
.set edge 3 key=1
.agg spath 2 min
.agg lsp 1 max
spath(F, T, add(L, W)) :- spath(F, M, L), edge(M, T, W).
lsp(0, V) :- spath(F, T, V).
`)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Explain()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"stratum 0", "stratum 1", "join, recursive", "copy",
		"join on [M]", "spath cols [1]", "edge cols [0]",
		"agg $MIN", "agg $MAX", "perm=[1 0 2] jk=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("explain output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainRejectsInvalid(t *testing.T) {
	p := NewProgram()
	p.DeclareSet("e", 2, 1)
	p.Add(R(A("e", Var("x"), Var("q")), A("e", Var("x"), Var("y"))))
	if _, err := p.Explain(); err == nil {
		t.Fatal("Explain accepted an invalid program")
	}
}

// TestShippedProgramsParse compiles every .dl file shipped under
// examples/programs.
func TestShippedProgramsParse(t *testing.T) {
	files, err := filepath.Glob("../../examples/programs/*.dl")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("expected shipped programs, found %v", files)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		p, err := Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if _, err := p.Explain(); err != nil {
			t.Fatalf("%s: explain: %v", f, err)
		}
	}
}
