// Command gadt-bench measures the end-to-end cost of algorithmic
// debugging on the seed subjects and writes a machine-readable summary.
// For every subject × traversal strategy it reports the oracle-question
// count (sourced from the obs metrics registry, the same counters
// `gadt -stats` prints) and ns/op, B/op and allocs/op of a full
// load → transform → trace → debug cycle measured with
// testing.Benchmark.
//
// Usage:
//
//	gadt-bench [-o BENCH_debug.json]
//
// The output feeds `make bench-json`; "-" writes to stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/obs"
	"gadt/internal/paper"
	"gadt/internal/progen"
)

type subject struct {
	name, buggy, fixed string
}

type result struct {
	Subject     string `json:"subject"`
	Strategy    string `json:"strategy"`
	Questions   int64  `json:"questions"`
	Localized   string `json:"localized"`
	NsPerOp     int64  `json:"ns_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
}

func main() {
	out := flag.String("o", "BENCH_debug.json", "output file (\"-\" = stdout)")
	flag.Parse()
	if err := run(*out); err != nil {
		fmt.Fprintln(os.Stderr, "gadt-bench:", err)
		os.Exit(1)
	}
}

func subjects() []subject {
	subs := []subject{{"sqrtest", paper.Sqrtest, paper.SqrtestFixed}}
	for _, shape := range []progen.Config{
		{Depth: 3, Fanout: 2, BugPath: []int{1, 0, 1}},
		{Depth: 4, Fanout: 3, BugPath: []int{2, 0, 1, 2}},
	} {
		p := progen.Generate(shape)
		subs = append(subs, subject{
			fmt.Sprintf("synth(d=%d,f=%d)", shape.Depth, shape.Fanout), p.Buggy, p.Fixed,
		})
	}
	return subs
}

// session runs one full debug cycle; when reg is non-nil the phases are
// observed and the question counters land in it.
func session(s subject, strat debugger.Strategy, reg *obs.Registry) (*debugger.Outcome, error) {
	sys, err := gadt.LoadObserved(s.name+".pas", s.buggy, reg, nil)
	if err != nil {
		return nil, err
	}
	run, err := sys.Trace(gadt.TraceOpts{})
	if err != nil {
		return nil, err
	}
	oracle, err := gadt.IntendedOracle(s.fixed)
	if err != nil {
		return nil, err
	}
	return run.Debug(oracle, gadt.DebugConfig{Strategy: strat, Slicing: true})
}

func run(out string) error {
	var results []result
	for _, s := range subjects() {
		for _, strat := range []debugger.Strategy{debugger.TopDown, debugger.DivideAndQuery, debugger.BottomUp} {
			reg := obs.NewRegistry()
			outc, err := session(s, strat, reg)
			if err != nil {
				return fmt.Errorf("%s/%s: %w", s.name, strat, err)
			}
			loc := "-"
			if outc.Localized() {
				loc = outc.Bug.Unit.Name
			}
			s, strat := s, strat
			br := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := session(s, strat, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
			results = append(results, result{
				Subject:     s.name,
				Strategy:    strat.String(),
				Questions:   reg.CounterVec("debugger.oracle.queries.strategy", "strategy").With(strat.String()).Value(),
				Localized:   loc,
				NsPerOp:     br.NsPerOp(),
				BytesPerOp:  br.AllocedBytesPerOp(),
				AllocsPerOp: br.AllocsPerOp(),
			})
			fmt.Fprintf(os.Stderr, "%-18s %-14s %2d questions  %s\n",
				s.name, strat, results[len(results)-1].Questions, br)
		}
	}

	w := os.Stdout
	if out != "-" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}
