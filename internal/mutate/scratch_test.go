package mutate

import (
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/progen"
)

// TestUndoRestoresScratchCopy checks EnumerateProgram's shared scratch
// copy against an independent rebuild of every mutant: a fresh clone of
// the original, the same site edit, then print. Any edit an undo left
// behind would leak into the mutants enumerated after it. The subjects
// mirror campaign.DefaultSubjects (which this package cannot import).
func TestUndoRestoresScratchCopy(t *testing.T) {
	subjects := map[string]string{"sqrtest": paper.SqrtestFixed}
	for _, p := range corpus.All() {
		subjects[p.Name] = p.Source
	}
	subjects["synth"] = progen.Generate(progen.Config{Depth: 3, Fanout: 2}).Fixed
	subjects["synthGlobals"] = progen.Generate(progen.Config{Depth: 2, Fanout: 2, Style: progen.Globals}).Fixed
	subjects["synthLoops"] = progen.Generate(progen.Config{Depth: 2, Fanout: 2, Loops: true}).Fixed

	for name, src := range subjects {
		t.Run(name, func(t *testing.T) {
			en, err := EnumerateProgram(name+".pas", src, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(en.Mutants) == 0 {
				t.Fatal("no mutants enumerated")
			}
			for _, m := range en.Mutants {
				clone, cm := ast.Clone(en.Prog)
				old2new := invert(cm)
				if m.orig.apply(func(n ast.Node) ast.Node { return old2new[n] }) == nil {
					t.Fatalf("mutant %d (%s): edit does not apply to a fresh clone", m.ID, m.Description)
				}
				if got := printer.Print(clone); got != m.Source {
					t.Fatalf("mutant %d (%s): enumerated source differs from an independent rebuild:\n%s\nwant:\n%s",
						m.ID, m.Description, m.Source, got)
				}
			}
			if got, want := printer.Print(en.Prog), printer.Print(parser.MustParse(name+".pas", src)); got != want {
				t.Errorf("enumeration edited the original program:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}
