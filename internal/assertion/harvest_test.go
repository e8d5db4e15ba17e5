package assertion_test

import (
	"testing"

	"gadt/internal/assertion"
	"gadt/internal/exectree"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

const harvestSubject = `
program harv;
var a, b, c, d: integer;

function inc(x: integer): integer;
begin
  inc := x + 1;
end;

function dbl(x: integer): integer;
begin
  dbl := x * 2;
end;

begin
  a := inc(1);
  b := inc(5);
  c := inc(9);
  d := dbl(3);
  writeln(a + b + c + d);
end.
`

// harvestBuggy is harvestSubject with inc off by one — the harvested
// assertion must flag its invocations.
const harvestBuggy = `
program harv;
var a, b, c, d: integer;

function inc(x: integer): integer;
begin
  inc := x + 2;
end;

function dbl(x: integer): integer;
begin
  dbl := x * 2;
end;

begin
  a := inc(1);
  b := inc(5);
  c := inc(9);
  d := dbl(3);
  writeln(a + b + c + d);
end.
`

func harvestTrace(t *testing.T, src string) *exectree.Tree {
	t.Helper()
	prog := parser.MustParse("t.pas", src)
	info, err := sem.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	res := exectree.TraceWith(info, exectree.TraceOpts{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Tree
}

func findUnit(t *testing.T, tree *exectree.Tree, unit string) *exectree.Node {
	t.Helper()
	var found *exectree.Node
	tree.Walk(func(n *exectree.Node) bool {
		if found == nil && n.Unit.Name == unit {
			found = n
		}
		return true
	})
	if found == nil {
		t.Fatalf("no %s invocation in the tree", unit)
	}
	return found
}

// TestGeneralizeFindsValidatedTemplate: three distinct passing inc calls
// must yield the one template that holds on all of them (result = x + 1)
// and reject the lookalikes fitted on a single sample (result = 2 * x
// matches inc(1) = 2 but not inc(5) = 6).
func TestGeneralizeFindsValidatedTemplate(t *testing.T) {
	tree := harvestTrace(t, harvestSubject)
	db := assertion.Generalize(tree.Nodes, assertion.GeneralizeOptions{})
	got := db.ForUnit("inc")
	if len(got) != 1 || got[0].Text != "result = x + 1" {
		texts := make([]string, len(got))
		for i, a := range got {
			texts[i] = a.Text
		}
		t.Fatalf("inc assertions = %v, want exactly [result = x + 1]", texts)
	}
	// dbl has a single sample — below MinSamples, no extrapolation.
	if len(db.ForUnit("dbl")) != 0 {
		t.Error("dbl generalized from a single sample")
	}
}

// TestGeneralizedAssertionJudgesMutant closes the loop: the assertion
// harvested from the reference run must hold on reference invocations
// and flag the off-by-one mutant's.
func TestGeneralizedAssertionJudgesMutant(t *testing.T) {
	db := assertion.Generalize(harvestTrace(t, harvestSubject).Nodes, assertion.GeneralizeOptions{})
	good := findUnit(t, harvestTrace(t, harvestSubject), "inc")
	if v := db.Judge(good); v != assertion.Holds {
		t.Errorf("reference inc judged %v, want Holds", v)
	}
	bad := findUnit(t, harvestTrace(t, harvestBuggy), "inc")
	if v := db.Judge(bad); v != assertion.Violated {
		t.Errorf("mutant inc judged %v, want Violated", v)
	}
}

// TestGeneralizeRequiresDistinctInputs: repeating one call many times is
// no evidence for a template — MinDistinct must gate it.
func TestGeneralizeRequiresDistinctInputs(t *testing.T) {
	tree := harvestTrace(t, `
program rep;
var a, b, c: integer;

function inc(x: integer): integer;
begin
  inc := x + 1;
end;

begin
  a := inc(4);
  b := inc(4);
  c := inc(4);
  writeln(a + b + c);
end.
`)
	db := assertion.Generalize(tree.Nodes, assertion.GeneralizeOptions{})
	if n := len(db.ForUnit("inc")); n != 0 {
		t.Errorf("generalized %d assertions from identical calls, want 0", n)
	}
}

// TestDBAddDeduplicates: the engine owns assertion insertion and may see
// the same oracle-given assertion through several paths; the DB must
// keep one copy per (unit, text).
func TestDBAddDeduplicates(t *testing.T) {
	db := assertion.NewDB()
	a := assertion.MustParse("inc", "result = x + 1")
	db.Add(a)
	db.Add(assertion.MustParse("inc", "result = x + 1"))
	db.Add(assertion.MustParse("inc", "result = abs(x) + 1"))
	if db.Len() != 2 {
		t.Errorf("db has %d assertions after duplicate adds, want 2", db.Len())
	}
}
