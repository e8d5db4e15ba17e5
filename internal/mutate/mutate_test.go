package mutate_test

import (
	"strings"
	"testing"

	"gadt/internal/mutate"
	"gadt/internal/obs"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
)

const subject = `
program subj;
var a, b: integer;

function double(x: integer): integer;
begin
  double := x * 2;
end;

procedure tally(n: integer; var lo, hi: integer);
var i: integer;
begin
  lo := 0;
  hi := 0;
  for i := 1 to n do
    if i < 3 then
      lo := lo + 1
    else
      hi := hi + double(i);
end;

begin
  tally(5, a, b);
  writeln(a, b);
end.
`

func enumerate(t *testing.T, cfg mutate.Config) []*mutate.Mutant {
	t.Helper()
	ms, err := mutate.Enumerate("subj.pas", subject, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) == 0 {
		t.Fatal("no mutants enumerated")
	}
	return ms
}

// TestEnumerateValidAndDistinct checks every mutant is a type-correct
// program that differs from the original.
func TestEnumerateValidAndDistinct(t *testing.T) {
	orig := printer.Print(parser.MustParse("subj.pas", subject))
	for _, m := range enumerate(t, mutate.Config{}) {
		prog, err := parser.ParseProgram("m.pas", m.Source)
		if err != nil {
			t.Fatalf("mutant %d (%s) does not parse: %v", m.ID, m.Description, err)
		}
		if _, err := sem.Analyze(prog); err != nil {
			t.Fatalf("mutant %d (%s) does not analyze: %v", m.ID, m.Description, err)
		}
		if m.Source == orig {
			t.Errorf("mutant %d (%s) is identical to the original", m.ID, m.Description)
		}
		if !m.Pos.IsValid() {
			t.Errorf("mutant %d (%s) has no source position", m.ID, m.Description)
		}
	}
}

// TestEnumerateDeterministic pins byte-for-byte reproducibility: same
// source and config, same mutants.
func TestEnumerateDeterministic(t *testing.T) {
	a := enumerate(t, mutate.Config{Seed: 7, Max: 10})
	b := enumerate(t, mutate.Config{Seed: 7, Max: 10})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Source != b[i].Source || a[i].Description != b[i].Description {
			t.Errorf("mutant %d differs between runs: %q vs %q", i, a[i].Description, b[i].Description)
		}
	}
	if c := enumerate(t, mutate.Config{Seed: 8, Max: 10}); sameIDs(a, c) {
		t.Log("note: different seeds picked the same sample (possible, not an error)")
	}
}

func sameIDs(a, b []*mutate.Mutant) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID {
			return false
		}
	}
	return true
}

// TestSampleIsSubset: Max sampling picks from the full enumeration and
// keeps the stable IDs.
func TestSampleIsSubset(t *testing.T) {
	full := enumerate(t, mutate.Config{})
	byID := make(map[int]*mutate.Mutant, len(full))
	for _, m := range full {
		byID[m.ID] = m
	}
	sample := enumerate(t, mutate.Config{Seed: 3, Max: 8})
	if len(sample) != 8 {
		t.Fatalf("sample size = %d, want 8", len(sample))
	}
	for i, m := range sample {
		want, ok := byID[m.ID]
		if !ok {
			t.Fatalf("sampled mutant ID %d not in full enumeration", m.ID)
		}
		if m.Source != want.Source {
			t.Errorf("sampled mutant %d differs from enumeration", m.ID)
		}
		if i > 0 && sample[i-1].ID >= m.ID {
			t.Errorf("sample not sorted by ID: %d then %d", sample[i-1].ID, m.ID)
		}
	}
}

// TestOperatorCoverageAndAttribution checks each operator fires on the
// subject and faults are attributed to the right unit.
func TestOperatorCoverageAndAttribution(t *testing.T) {
	ms := enumerate(t, mutate.Config{})
	seen := make(map[mutate.Op]int)
	units := make(map[string]bool)
	for _, m := range ms {
		seen[m.Op]++
		units[m.Unit] = true
	}
	for _, op := range mutate.AllOps() {
		if seen[op] == 0 {
			t.Errorf("operator %s produced no mutants", op)
		}
	}
	for _, u := range []string{"double", "tally", "subj"} {
		if !units[u] {
			t.Errorf("no mutant attributed to unit %s", u)
		}
	}
	for _, m := range ms {
		if m.Unit != "double" && m.Unit != "tally" && m.Unit != "subj" {
			t.Errorf("mutant %d attributed to unknown unit %q", m.ID, m.Unit)
		}
	}
}

// TestOpsFilter restricts enumeration to one operator.
func TestOpsFilter(t *testing.T) {
	ms := enumerate(t, mutate.Config{Ops: []mutate.Op{mutate.NegateCond}})
	for _, m := range ms {
		if m.Op != mutate.NegateCond {
			t.Fatalf("mutant %d has op %s, want only %s", m.ID, m.Op, mutate.NegateCond)
		}
	}
	// The subject has exactly one if; for-loops have no negatable
	// condition, so expect exactly one negate-cond mutant.
	if len(ms) != 1 {
		t.Errorf("negate-cond mutants = %d, want 1", len(ms))
	}
	if !strings.Contains(ms[0].Description, "if") || ms[0].Unit != "tally" {
		t.Errorf("unexpected negate-cond mutant: %q in %q", ms[0].Description, ms[0].Unit)
	}
}

// TestVarSwapTypeSafe: swaps only happen inside one declaration group
// (same declared type), here lo/hi.
func TestVarSwapTypeSafe(t *testing.T) {
	ms := enumerate(t, mutate.Config{Ops: []mutate.Op{mutate.VarSwap}})
	for _, m := range ms {
		if !strings.Contains(m.Description, "lo -> hi") &&
			!strings.Contains(m.Description, "hi -> lo") &&
			!strings.Contains(m.Description, "a -> b") &&
			!strings.Contains(m.Description, "b -> a") {
			t.Errorf("unexpected var-swap: %s", m.Description)
		}
	}
	if len(ms) < 4 {
		t.Errorf("var-swap mutants = %d, want >= 4 (lo/hi occurrences)", len(ms))
	}
}

// TestParseOp round-trips operator names.
func TestParseOp(t *testing.T) {
	for _, op := range mutate.AllOps() {
		got, ok := mutate.ParseOp(string(op))
		if !ok || got != op {
			t.Errorf("ParseOp(%q) = %q, %v", op, got, ok)
		}
	}
	if _, ok := mutate.ParseOp("nope"); ok {
		t.Error("ParseOp accepted an unknown operator")
	}
}

// TestStillbornMidEnumeration: flipping the string `+` to `-` or `*`
// does not type-check. Those sites are skipped and counted, and the
// scratch copy is restored after a failed validation too, so the next
// mutant carries only its own edit.
func TestStillbornMidEnumeration(t *testing.T) {
	const src = `
program glue;
var word, acc: string;
    n: integer;
begin
  word := 'b';
  acc := 'a' + word;
  n := 7;
  writeln(acc, n);
end.`
	reg := obs.NewRegistry()
	ms, err := mutate.Enumerate("glue.pas", src, mutate.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("mutate.stillborn").Value(); got != 2 {
		t.Fatalf("mutate.stillborn = %d, want 2", got)
	}
	var skipped []int
	next := -1
	for i, m := range ms {
		for id := ms[max(i-1, 0)].ID + 1; id < m.ID; id++ {
			skipped = append(skipped, id)
			next = i
		}
		if strings.Contains(m.Source, "'a' - ") || strings.Contains(m.Source, "'a' * ") {
			t.Errorf("mutant %d (%s) carries a stillborn edit:\n%s", m.ID, m.Description, m.Source)
		}
	}
	if len(skipped) != 2 || skipped[1] != skipped[0]+1 || next < 0 {
		t.Fatalf("skipped IDs = %v, want two consecutive IDs inside the enumeration", skipped)
	}
	if m := ms[next]; !strings.Contains(m.Source, "'a' + ") {
		t.Errorf("mutant %d (%s), enumerated right after the stillborn ones, lost the original `+`:\n%s",
			m.ID, m.Description, m.Source)
	}
}
