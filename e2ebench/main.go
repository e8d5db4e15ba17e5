// Command e2ebench is the repository's end-to-end benchmark. It runs one
// of three workloads of the GADT pipeline — a mutation campaign (pmut),
// a differential campaign on the bytecode VM (pdiff-vm) and replayed
// gadt-serve sessions (serve) — with inputs generated from --seed,
// checks every output, and prints one JSON result line.
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs untraced and then traced (obs
// registry and tracer attached, CPU profile on), and the result carries
// the per-layer metrics. See README.md for the metric definitions and
// for which end-to-end metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.IntVar(&o.seconds, "seconds", 10, "nominal length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics from a traced run")
	flag.Parse()

	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	o.trace = *trace == 1
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	res, err := run(o)
	if err != nil {
		fatalf("%v", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(line))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: "+format+"\n", args...)
	os.Exit(1)
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// tiny shrinks every input sample so the self-test runs each
	// workload in seconds.
	tiny bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
