package debugger_test

import (
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/progen"
)

// benchTree traces a generated call tree for the divide-and-query
// benchmarks: depth 6 / fanout 3 yields several hundred invocations.
func benchTree(b *testing.B) *exectree.Tree {
	b.Helper()
	p := progen.Generate(progen.Config{Depth: 6, Fanout: 3, BugPath: []int{1, 0, 2, 1, 0, 2}})
	prog := parser.MustParse("bench.pas", p.Buggy)
	info, err := sem.Analyze(prog)
	if err != nil {
		b.Fatal(err)
	}
	res := exectree.TraceWith(info, exectree.TraceOpts{})
	if res.Err != nil {
		b.Fatal(res.Err)
	}
	return res.Tree
}

// BenchmarkDivideAndQuery measures one full session over a large tree
// under the all-correct oracle — the worst case for the selector, which
// must re-scan the suspect region after every verdict. It guards the
// incremental weight memo: the pre-refactor engine recomputed every
// subtree weight per candidate per question (quadratic in region size)
// and regresses this benchmark by an order of magnitude.
func BenchmarkDivideAndQuery(b *testing.B) {
	for _, strat := range []debugger.Strategy{debugger.DivideAndQuery, debugger.WeightedDivideAndQuery} {
		b.Run(strat.String(), func(b *testing.B) {
			tree := benchTree(b)
			oracle := &debugger.ScriptedOracle{Default: debugger.Answer{Verdict: debugger.Correct}}
			b.ReportMetric(float64(tree.Size()), "nodes")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := debugger.New(tree, oracle, debugger.Options{Strategy: strat, MaxQuestions: 1 << 30})
				if _, err := sess.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWeightedNoWorseThanPlainOnGeneratedTrees compares the two
// divide-and-query variants over a spread of generated shapes with a
// perfect oracle: the weighted strategy exists to spend fewer (never
// more, on these uniform-cost trees) questions than plain D&Q in
// aggregate.
func TestWeightedNoWorseThanPlainOnGeneratedTrees(t *testing.T) {
	shapes := []progen.Config{
		{Depth: 3, Fanout: 2, BugPath: []int{1, 0, 1}},
		{Depth: 4, Fanout: 2, BugPath: []int{0, 1, 1, 0}},
		{Depth: 4, Fanout: 3, BugPath: []int{2, 0, 1, 2}},
		{Depth: 5, Fanout: 2, BugPath: []int{1, 1, 0, 1, 0}},
	}
	totalPlain, totalWeighted := 0, 0
	for _, shape := range shapes {
		p := progen.Generate(shape)
		questions := func(strat debugger.Strategy) int {
			res, _ := traceIt(t, p.Buggy)
			oracle := &debugger.IntendedOracle{Ref: analyze(t, p.Fixed)}
			sess := debugger.New(res.Tree, oracle, debugger.Options{Strategy: strat})
			out, err := sess.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !out.Localized() {
				t.Fatalf("%v/%+v: inconclusive", strat, shape)
			}
			return out.Questions
		}
		plain := questions(debugger.DivideAndQuery)
		weighted := questions(debugger.WeightedDivideAndQuery)
		totalPlain += plain
		totalWeighted += weighted
		t.Logf("depth=%d fanout=%d: plain=%d weighted=%d", shape.Depth, shape.Fanout, plain, weighted)
	}
	if totalWeighted > totalPlain {
		t.Errorf("weighted D&Q asked %d questions in total, plain asked %d — the refinement must not cost questions",
			totalWeighted, totalPlain)
	}
}
