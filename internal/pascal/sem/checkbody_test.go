package sem_test

import (
	"strings"
	"testing"

	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/token"
)

const checkBodySrc = `program cb;
label 1;
var s, t: string;
    n: integer;

function f(x: integer): integer;
  label 7;
  const k = 2;
  type pair = array [1..2] of integer;
  var s: integer;
      p: pair;

  procedure inner;
  begin
    f := x + 1
  end;

begin
  s := k;
  p[1] := s;
  inner;
  goto 7;
  7: x := x + p[1]
end;

begin
  s := 'a';
  t := s + 'b';
  n := f(2);
  if n > 0 then goto 1;
  writeln(t);
  1: writeln(n)
end.
`

// infoSnapshot is what CheckBody must leave alone: the sizes of the
// resolution maps, every identifier's resolution and every label's
// placement.
type infoSnapshot struct {
	sizes      [7]int
	uses       map[*ast.Ident]sem.Symbol
	placements map[*sem.LabelInfo]*ast.LabeledStmt
}

func snapshot(info *sem.Info) infoSnapshot {
	s := infoSnapshot{
		sizes: [7]int{len(info.RoutineOf), len(info.Uses), len(info.Calls), len(info.Builtin),
			len(info.TypeOf), len(info.GotoTgt), len(info.LabelOf)},
		uses:       make(map[*ast.Ident]sem.Symbol),
		placements: make(map[*sem.LabelInfo]*ast.LabeledStmt),
	}
	ast.Inspect(info.Program, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			s.uses[id] = info.UseOf(id)
		}
		return true
	})
	for _, r := range info.Routines {
		for _, li := range r.Labels {
			s.placements[li] = li.Placement
		}
	}
	return s
}

func (s infoSnapshot) check(t *testing.T, info *sem.Info) {
	t.Helper()
	now := snapshot(info)
	if now.sizes != s.sizes {
		t.Errorf("map sizes %v, want %v", now.sizes, s.sizes)
	}
	for id, sym := range s.uses {
		if got := now.uses[id]; got != sym {
			t.Errorf("UseOf(%s at %s) = %v, want %v", id.Name, id.Pos(), got, sym)
		}
	}
	for li, st := range s.placements {
		if li.Placement != st {
			t.Errorf("label %s placement changed", li.Name)
		}
	}
}

// TestCheckBodyLeavesInfoUnchanged checks every body of an unedited
// program, then edits that CheckBody must reject, each undone after its
// check: the verdicts match whole-program analysis, and Info keeps
// describing the program Analyze saw.
func TestCheckBodyLeavesInfoUnchanged(t *testing.T) {
	info := analyze(t, checkBodySrc)
	before := snapshot(info)
	for _, r := range info.Routines {
		if err := info.CheckBody(r); err != nil {
			t.Errorf("CheckBody(%s) of the unedited program: %v", r.Name, err)
		}
	}
	before.check(t, info)

	f, inner := info.LookupRoutine("f"), info.LookupRoutine("inner")
	fBody, mainBody := f.Block.Body, info.Main.Block.Body
	last := len(fBody.Stmts) - 1
	labeled := fBody.Stmts[last].(*ast.LabeledStmt)
	gotoStmt := mainBody.Stmts[3].(*ast.IfStmt).Then.(*ast.GotoStmt)
	resultAssign := inner.Block.Body.Stmts[0].(*ast.AssignStmt)
	concat := mainBody.Stmts[1].(*ast.AssignStmt).Rhs.(*ast.BinaryExpr)

	for _, tc := range []struct {
		name    string
		routine *sem.Routine
		edit    func() (undo func())
		want    string
	}{
		{"unplaced label", f, func() func() {
			old := fBody.Stmts
			fBody.Stmts = append(append([]ast.Stmt(nil), old[:last]...), labeled.Stmt)
			return func() { fBody.Stmts = old }
		}, "label 7 declared but not placed in f"},
		{"label placed twice", f, func() func() {
			old := fBody.Stmts
			fBody.Stmts = append(append([]ast.Stmt(nil), old...), labeled)
			return func() { fBody.Stmts = old }
		}, "label 7 placed more than once"},
		{"goto to an undeclared label", info.Main, func() func() {
			gotoStmt.Label = "99"
			return func() { gotoStmt.Label = "1" }
		}, "goto to undeclared label 99"},
		{"bad assignment to an enclosing function's result", inner, func() func() {
			old := resultAssign.Rhs
			resultAssign.Rhs = &ast.StringLit{LitPos: old.Pos(), Value: "x"}
			return func() { resultAssign.Rhs = old }
		}, "cannot assign string result to function f"},
		{"local shadowing a global", f, func() func() {
			// s is f's integer local, not the string global.
			rhs := fBody.Stmts[0].(*ast.AssignStmt)
			old := rhs.Rhs
			rhs.Rhs = &ast.StringLit{LitPos: old.Pos(), Value: "x"}
			return func() { rhs.Rhs = old }
		}, "cannot assign string to integer"},
		{"string minus", info.Main, func() func() {
			concat.Op = token.Minus
			return func() { concat.Op = token.Plus }
		}, "operator - requires numeric operands"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			undo := tc.edit()
			err := info.CheckBody(tc.routine)
			// Analyze a copy: analyzing info.Program would renumber its nodes.
			if _, fullErr := sem.Analyze(ast.Copy(info.Program)); fullErr == nil {
				t.Errorf("whole-program analysis accepts the edit")
			}
			undo()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("CheckBody(%s) = %v, want an error containing %q", tc.routine.Name, err, tc.want)
			}
			if err := info.CheckBody(tc.routine); err != nil {
				t.Errorf("CheckBody(%s) after undo: %v", tc.routine.Name, err)
			}
			before.check(t, info)
		})
	}
}
