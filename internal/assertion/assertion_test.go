package assertion_test

import (
	"strings"
	"testing"

	"gadt/internal/assertion"
	"gadt/internal/exectree"
	"gadt/internal/paper"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

func env(pairs ...any) assertion.Env {
	e := make(assertion.Env)
	for i := 0; i < len(pairs); i += 2 {
		e[pairs[i].(string)] = interp.MakeValue(pairs[i+1])
	}
	return e
}

func TestEvalBasics(t *testing.T) {
	cases := []struct {
		expr string
		env  assertion.Env
		want assertion.Verdict
	}{
		{"x = 3", env("x", int64(3)), assertion.Holds},
		{"x = 3", env("x", int64(4)), assertion.Violated},
		{"x < y", env("x", int64(1), "y", int64(2)), assertion.Holds},
		{"(x > 0) and (y > 0)", env("x", int64(1), "y", int64(-1)), assertion.Violated},
		{"(x > 0) or (y > 0)", env("x", int64(1), "y", int64(-1)), assertion.Holds},
		{"not (x = 0)", env("x", int64(1)), assertion.Holds},
		{"x mod 2 = 0", env("x", int64(4)), assertion.Holds},
		{"x div 2 = 2", env("x", int64(5)), assertion.Holds},
		{"abs(x) = 5", env("x", int64(-5)), assertion.Holds},
		{"sqr(x) = 9", env("x", int64(3)), assertion.Holds},
		{"odd(x)", env("x", int64(7)), assertion.Holds},
		{"r > 1.5", env("r", 2.5), assertion.Holds},
		{"r = 2", env("r", 2.0), assertion.Holds}, // int/real mixing
		{"s = 'abc'", env("s", "abc"), assertion.Holds},
		{"b", env("b", true), assertion.Holds},
		{"missing = 1", env(), assertion.Unknown},
		{"x div 0 = 1", env("x", int64(1)), assertion.Unknown}, // eval error
		{"x + 1", env("x", int64(1)), assertion.Unknown},       // non-boolean
	}
	for _, tc := range cases {
		a, err := assertion.Parse("u", tc.expr)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.expr, err)
		}
		if got := a.Eval(tc.env); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestArrayHelpers(t *testing.T) {
	arr := &interp.ArrayVal{Lo: 1, Hi: 4, Elems: []interp.Value{interp.IntV(1), interp.IntV(2), interp.IntV(3), interp.IntV(4)}}
	cases := []struct {
		expr string
		want assertion.Verdict
	}{
		{"sum(a) = 10", assertion.Holds},
		{"sum(a, n) = 3", assertion.Holds}, // first 2 elements
		{"len(a) = 4", assertion.Holds},
		{"a[1] = 1", assertion.Holds},
		{"a[4] = 4", assertion.Holds},
		{"a[9] = 0", assertion.Unknown}, // out of range
	}
	e := env("a", arr, "n", int64(2))
	for _, tc := range cases {
		a := assertion.MustParse("u", tc.expr)
		if got := a.Eval(e); got != tc.want {
			t.Errorf("%q = %v, want %v", tc.expr, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, expr := range []string{"", "x +", "1 ="} {
		if _, err := assertion.Parse("u", expr); err == nil {
			t.Errorf("Parse(%q): expected error", expr)
		}
	}
}

func TestEnvForNode(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.TraceWith(info, exectree.TraceOpts{})
	var arrsum, dec *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		switch n.Unit.Name {
		case "arrsum":
			arrsum = n
		case "decrement":
			dec = n
		}
		return true
	})
	e := assertion.EnvFor(arrsum)
	if !interp.ValuesEqual(e["n"], interp.IntV(2)) {
		t.Errorf("n = %v", e["n"])
	}
	if !interp.ValuesEqual(e["b"], interp.IntV(3)) {
		t.Errorf("b (exit value) = %v, want 3", e["b"])
	}
	if !interp.ValuesEqual(e["old_b"], interp.IntV(0)) {
		t.Errorf("old_b (entry value) = %v, want 0", e["old_b"])
	}
	de := assertion.EnvFor(dec)
	if !interp.ValuesEqual(de["result"], interp.IntV(4)) || !interp.ValuesEqual(de["decrement"], interp.IntV(4)) {
		t.Errorf("result bindings = %v / %v", de["result"], de["decrement"])
	}
}

func TestDBJudge(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.TraceWith(info, exectree.TraceOpts{})
	var arrsum, dec, sq *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		switch n.Unit.Name {
		case "arrsum":
			arrsum = n
		case "decrement":
			dec = n
		case "square":
			sq = n
		}
		return true
	})

	db := assertion.NewDB()
	if err := db.AddText("arrsum", "b = sum(a, n)"); err != nil {
		t.Fatal(err)
	}
	if err := db.AddText("decrement", "result = y - 1"); err != nil {
		t.Fatal(err)
	}
	db.Trust("square")

	if v := db.Judge(arrsum); v != assertion.Holds {
		t.Errorf("arrsum = %v, want holds", v)
	}
	if v := db.Judge(dec); v != assertion.Violated {
		t.Errorf("decrement = %v, want violated (buggy)", v)
	}
	if v := db.Judge(sq); v != assertion.Holds {
		t.Errorf("square (trusted) = %v, want holds", v)
	}
	var sum1 *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "sum1" {
			sum1 = n
		}
		return true
	})
	if v := db.Judge(sum1); v != assertion.Unknown {
		t.Errorf("sum1 (no assertions) = %v, want unknown", v)
	}
	if db.Len() != 2 {
		t.Errorf("db len = %d", db.Len())
	}
}

func TestMultipleAssertionsAnyViolationWins(t *testing.T) {
	prog := parser.MustParse("t.pas", paper.Sqrtest)
	info, _ := sem.Analyze(prog)
	res := exectree.TraceWith(info, exectree.TraceOpts{})
	var arrsum *exectree.Node
	res.Tree.Walk(func(n *exectree.Node) bool {
		if n.Unit.Name == "arrsum" {
			arrsum = n
		}
		return true
	})
	db := assertion.NewDB()
	db.AddText("arrsum", "b = sum(a, n)") // holds
	db.AddText("arrsum", "b < 0")         // violated
	if v := db.Judge(arrsum); v != assertion.Violated {
		t.Errorf("judge = %v, want violated", v)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	assertion.MustParse("u", "1 +")
}

func TestUnknownFunction(t *testing.T) {
	a := assertion.MustParse("u", "mystery(x) = 1")
	if got := a.Eval(env("x", int64(1))); got != assertion.Unknown {
		t.Errorf("unknown function = %v, want unknown", got)
	}
}

func TestRecordFieldAccess(t *testing.T) {
	rec := &interp.RecordVal{Names: []string{"x", "y"}, Fields: []interp.Value{interp.IntV(3), interp.IntV(4)}}
	a := assertion.MustParse("u", "p.x + p.y = 7")
	if got := a.Eval(env("p", rec)); got != assertion.Holds {
		t.Errorf("record assertion = %v", got)
	}
}

func TestErrorMessagesCarryContext(t *testing.T) {
	_, err := assertion.Parse("u", "x ===")
	if err == nil || !strings.Contains(err.Error(), "assertion") {
		t.Errorf("err = %v", err)
	}
}
