package exectree_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gadt/internal/exectree"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestRenderGoldenSqrtest pins the text rendering of the sqrtest
// execution tree: the journal/replay machinery and the figure
// reproductions both rely on tree construction and rendering being
// byte-for-byte deterministic across runs.
func TestRenderGoldenSqrtest(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "testdata", "sqrtest.pas"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "..", "testdata", "sqrtest_tree.golden")

	render := func() []byte {
		prog := parser.MustParse("sqrtest.pas", string(src))
		info, err := sem.Analyze(prog)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		res := exectree.TraceWith(info, exectree.TraceOpts{})
		if res.Err != nil {
			t.Fatalf("trace: %v", res.Err)
		}
		var buf bytes.Buffer
		res.Tree.Render(&buf, nil, nil)
		return buf.Bytes()
	}

	got := render()
	if again := render(); !bytes.Equal(got, again) {
		t.Fatalf("rendering is not deterministic:\n--- first ---\n%s--- second ---\n%s", got, again)
	}

	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rendered tree differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}
