package mutate

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"gadt/internal/corpus"
	"gadt/internal/paper"
	"gadt/internal/pascal/ast"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
)

// testSubjects mirrors campaign.DefaultSubjects (which this package
// cannot import) and adds a spread of progen shapes, buggy and fixed,
// and every testdata program.
func testSubjects(t *testing.T) map[string]string {
	t.Helper()
	subjects := map[string]string{"sqrtest": paper.SqrtestFixed}
	for _, p := range corpus.All() {
		subjects[p.Name] = p.Source
	}
	subjects["synth"] = progen.Generate(progen.Config{Depth: 3, Fanout: 2}).Fixed
	subjects["synthGlobals"] = progen.Generate(progen.Config{Depth: 2, Fanout: 2, Style: progen.Globals}).Fixed
	subjects["synthLoops"] = progen.Generate(progen.Config{Depth: 2, Fanout: 2, Loops: true}).Fixed
	for _, c := range []progen.Config{
		{Depth: 1, Fanout: 1},
		{Depth: 2, Fanout: 3, BugPath: []int{1, 2}},
		{Depth: 3, Fanout: 2, Style: progen.Globals},
		{Depth: 2, Fanout: 2, Style: progen.Globals, Loops: true},
		{Depth: 3, Fanout: 2, Loops: true, BugPath: []int{1, 0}},
	} {
		style := "params"
		if c.Style == progen.Globals {
			style = "globals"
		}
		name := fmt.Sprintf("progen_d%d_f%d_%s_loops=%v", c.Depth, c.Fanout, style, c.Loops)
		p := progen.Generate(c)
		subjects[name+"_fixed"] = p.Fixed
		subjects[name+"_buggy"] = p.Buggy
	}
	files, err := filepath.Glob("../../testdata/*.pas")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		subjects["testdata_"+strings.TrimSuffix(filepath.Base(f), ".pas")] = string(src)
	}
	return subjects
}

// TestUndoRestoresScratchCopy checks EnumerateProgram's in-place edits
// against an independent rebuild of every mutant: Mutant.Program (a
// fresh copy of the original with the same site edit) must print as the
// enumerated Source, and so must the parse of that Source — the AST a
// campaign executes is the one the printed mutant describes. Any edit
// an undo left behind would leak into the mutants enumerated after it,
// and into the original program, which must print as before.
func TestUndoRestoresScratchCopy(t *testing.T) {
	for name, src := range testSubjects(t) {
		t.Run(name, func(t *testing.T) {
			en, err := EnumerateProgram(name+".pas", src, Config{})
			if err != nil {
				t.Fatal(err)
			}
			if len(en.Mutants) == 0 {
				t.Fatal("no mutants enumerated")
			}
			for _, m := range en.Mutants {
				if got := printer.Print(m.Program()); got != m.Source {
					t.Fatalf("mutant %d (%s): enumerated source differs from an independent rebuild:\n%s\nwant:\n%s",
						m.ID, m.Description, m.Source, got)
				}
				reparsed, err := parser.ParseProgram(name+".pas", m.Source)
				if err != nil {
					t.Fatalf("mutant %d (%s): source does not parse: %v", m.ID, m.Description, err)
				}
				if got := printer.Print(reparsed); got != m.Source {
					t.Fatalf("mutant %d (%s): source does not survive a parse:\n%s\nwant:\n%s",
						m.ID, m.Description, got, m.Source)
				}
			}
			if got, want := printer.Print(en.Prog), printer.Print(parser.MustParse(name+".pas", src)); got != want {
				t.Errorf("enumeration edited the original program:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestCheckBodyAgreesWithAnalyze checks the per-routine validation
// against whole-program analysis: for every site, stillborn ones
// included, CheckBody of the owning routine rejects the in-place edit
// exactly when sem.Analyze rejects an edited full copy.
func TestCheckBodyAgreesWithAnalyze(t *testing.T) {
	rejected := 0
	for name, src := range testSubjects(t) {
		prog := parser.MustParse(name+".pas", src)
		info, err := sem.Analyze(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, st := range collectSites(prog, nil) {
			undo := st.apply(st.anchor)
			bodyErr := info.CheckBody(ownerOf(info, st))
			undo()
			cp, anchor := ast.CopyFind(prog, st.anchor)
			st.apply(anchor)
			_, fullErr := sem.Analyze(cp)
			if (bodyErr != nil) != (fullErr != nil) {
				t.Errorf("%s site %d (%s): CheckBody error %v, Analyze of the edited program error %v",
					name, i, st.desc, bodyErr, fullErr)
			}
			if bodyErr != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Error("no site was rejected; the agreement check saw only accepted edits")
	}
}

// TestProgramConcurrent builds every mutant of one enumeration from
// eight goroutines at once; each must print the same program. Run
// under -race it also shows that building mutants only reads the shared
// original program.
func TestProgramConcurrent(t *testing.T) {
	en, err := EnumerateProgram("synth.pas", progen.Generate(progen.Config{Depth: 2, Fanout: 2, Loops: true}).Fixed, Config{})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, m := range en.Mutants {
				got[w] = append(got[w], printer.Print(m.Program()))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, m := range en.Mutants {
			if got[w][i] != m.Source {
				t.Fatalf("goroutine %d, mutant %d (%s): built program differs from Source:\n%s\nwant:\n%s",
					w, m.ID, m.Description, got[w][i], m.Source)
			}
		}
	}
}
