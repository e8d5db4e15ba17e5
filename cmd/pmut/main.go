// Command pmut runs a parallel mutation campaign: it plants faults into
// every subject program with classic mutation operators, transforms
// each mutant and runs it untraced to classify it killed, survived or
// timeout, pushes each killed mutant on through the rest of the GADT
// pipeline (trace, algorithmic debugging), and answers every debugger
// query from the unmutated reference program — a fault-injection
// evaluation of bug localization with zero interactive oracle
// questions.
//
// Usage:
//
//	pmut [flags]
//
//	-seed n        campaign seed (mutant sampling; default 1)
//	-budget n      total mutants across all subjects (0 = all; default 240)
//	-workers n     worker pool size (0 = GOMAXPROCS)
//	-strategy s    comma list of top-down,divide,weighted,bottom-up, or "all"
//	-operators s   comma list of mutation operators, or "all"
//	-gate          exit non-zero if weighted D&Q's median question count
//	               exceeds plain divide-and-query's (CI regression gate)
//	-no-harvest    skip harvesting the reference run into call/assertion
//	               databases (every query then reaches the oracle)
//	-subject s     only subjects whose name contains s
//	-backend name  engine of the untraced classification run: interp or
//	               vm (traced runs of killed mutants use the interpreter)
//	-fuel n        per-execution statement budget
//	-depth n       per-execution call-depth budget
//	-timeout d     per-mutant wall-clock backstop
//	-json file     report destination ("-" = stdout; default BENCH_mutation.json)
//	-stats         print the obs metrics snapshot on exit
//	-ops addr      serve /metrics, /healthz, expvar and pprof on addr
//	-trace-out f   write a Perfetto-loadable Chrome trace (one lane per worker)
//	-progress      heartbeat lines on stderr (throughput, ETA, kills so far)
//	-v             per-subject and per-mutant progress
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/mutate"
	"gadt/internal/obs"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "campaign seed")
		budget    = flag.Int("budget", 240, "total mutants across subjects (0 = all)")
		workers   = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
		strategy  = flag.String("strategy", "all", "comma list of top-down,divide,weighted,bottom-up, or all")
		gate      = flag.Bool("gate", false, "fail if weighted D&Q's median question count exceeds plain divide-and-query's")
		noHarvest = flag.Bool("no-harvest", false, "skip the reference-run call/assertion harvest")
		opsFlag   = flag.String("operators", "all", "comma list of mutation operators, or all")
		subject   = flag.String("subject", "", "only subjects whose name contains this")
		backendF  = flag.String("backend", "", "engine of each mutant's untraced classification run: interp or vm (traced runs use the interpreter)")
		fuel      = flag.Int("fuel", 0, "per-execution statement budget (0 = default)")
		depth     = flag.Int("depth", 0, "per-execution call-depth budget (0 = default)")
		timeout   = flag.Duration("timeout", 0, "per-mutant wall-clock backstop (0 = default)")
		jsonOut   = flag.String("json", "BENCH_mutation.json", "report destination (\"-\" = stdout)")
		stats     = flag.Bool("stats", false, "print a metrics snapshot on exit")
		opsAddr   = flag.String("ops", "", "serve the live ops endpoint (/metrics, /healthz, pprof) on this address")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON file (Perfetto-loadable; \".jsonl\" = raw events, \"-\" = stderr text)")
		progress  = flag.Bool("progress", false, "heartbeat lines on stderr (throughput, ETA, kills so far)")
		verbose   = flag.Bool("v", false, "per-subject progress")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(runOpts{
		seed: *seed, budget: *budget, workers: *workers,
		strategy: *strategy, opsFlag: *opsFlag, subject: *subject, backend: *backendF,
		fuel: *fuel, depth: *depth, timeout: *timeout, jsonOut: *jsonOut,
		stats: *stats, opsAddr: *opsAddr, traceOut: *traceOut,
		progress: *progress, verbose: *verbose, gate: *gate, noHarvest: *noHarvest,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "pmut:", err)
		os.Exit(1)
	}
}

func parseStrategies(s string) ([]debugger.Strategy, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []debugger.Strategy
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		strat, ok := debugger.ParseStrategy(part)
		if !ok || part == "" {
			return nil, fmt.Errorf("unknown strategy %q", part)
		}
		out = append(out, strat)
	}
	return out, nil
}

func parseOps(s string) ([]mutate.Op, error) {
	if s == "" || s == "all" {
		return nil, nil
	}
	var out []mutate.Op
	for _, part := range strings.Split(s, ",") {
		op, ok := mutate.ParseOp(strings.TrimSpace(part))
		if !ok {
			return nil, fmt.Errorf("unknown mutation operator %q (have: %v)", part, mutate.AllOps())
		}
		out = append(out, op)
	}
	return out, nil
}

type runOpts struct {
	seed            int64
	budget, workers int
	strategy        string
	opsFlag         string
	subject         string
	backend         string
	fuel, depth     int
	timeout         time.Duration
	jsonOut         string
	stats           bool
	opsAddr         string
	traceOut        string
	progress        bool
	verbose         bool
	gate            bool
	noHarvest       bool
}

func run(o runOpts) (err error) {
	strategies, err := parseStrategies(o.strategy)
	if err != nil {
		return err
	}
	ops, err := parseOps(o.opsFlag)
	if err != nil {
		return err
	}
	var subjects []campaign.Subject
	if o.subject != "" {
		for _, s := range campaign.DefaultSubjects() {
			if strings.Contains(s.Name, o.subject) {
				subjects = append(subjects, s)
			}
		}
		if len(subjects) == 0 {
			return fmt.Errorf("no subject matches %q", o.subject)
		}
	}

	reg, tracer, closeTrace, err := obs.Setup(o.traceOut)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := closeTrace(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if o.opsAddr != "" {
		srv, serr := obs.ServeOps(o.opsAddr, reg)
		if serr != nil {
			return serr
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "pmut: ops endpoint on http://%s (metrics, healthz, pprof)\n", srv.Addr())
	}

	cfg := campaign.Config{
		Subjects:   subjects,
		Ops:        ops,
		Seed:       o.seed,
		Budget:     o.budget,
		Workers:    o.workers,
		Strategies: strategies,
		Fuel:       o.fuel,
		MaxDepth:   o.depth,
		Timeout:    o.timeout,
		Metrics:    reg,
		Tracer:     tracer,
		NoHarvest:  o.noHarvest,
		Backend:    o.backend,
	}
	if o.progress {
		cfg.Progress = os.Stderr
	}
	if o.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	rep, err := campaign.Run(cfg)
	if err != nil {
		return err
	}

	if o.verbose {
		for _, oc := range rep.Outcomes {
			fmt.Fprintf(os.Stderr, "%-28s #%-4d %-10s %-16s %s\n",
				oc.Subject, oc.MutantID, oc.Status, oc.Op, oc.Description)
		}
	}
	// With the report going to stdout, keep stdout pure JSON (pipeable
	// into jq) and move the human summary to stderr. Both streams are
	// buffered and flushed once before exit.
	stdout := bufio.NewWriter(os.Stdout)
	summaryDst := stdout
	if o.jsonOut == "-" {
		summaryDst = bufio.NewWriter(os.Stderr)
	}
	defer func() {
		if ferr := summaryDst.Flush(); ferr != nil && err == nil {
			err = ferr
		}
		if ferr := stdout.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	summarize(summaryDst, rep)

	switch o.jsonOut {
	case "":
	case "-":
		if err := rep.WriteJSON(stdout); err != nil {
			return err
		}
	default:
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		w := bufio.NewWriter(f)
		if err := rep.WriteJSON(w); err != nil {
			f.Close()
			return err
		}
		if err := w.Flush(); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(summaryDst, "report written to %s\n", o.jsonOut)
	}
	if o.stats {
		fmt.Fprintln(summaryDst, "\nmetrics:")
		reg.Snapshot().WriteText(summaryDst)
	}
	if o.gate {
		if err := gateMedians(rep); err != nil {
			return err
		}
		fmt.Fprintln(summaryDst, "gate: weighted D&Q median is within the plain divide-and-query bound")
	}
	return nil
}

// gateMedians is the CI regression gate: the weighted strategy's whole
// point is asking fewer questions, so its median must not drift above
// plain divide-and-query's.
func gateMedians(rep *campaign.Report) error {
	plain := rep.ByStrategy[debugger.DivideAndQuery.String()]
	weighted := rep.ByStrategy[debugger.WeightedDivideAndQuery.String()]
	if plain == nil || weighted == nil {
		return fmt.Errorf("gate: need both %s and %s in the campaign (got strategies: %v)",
			debugger.DivideAndQuery, debugger.WeightedDivideAndQuery, sortedKeys(rep.ByStrategy))
	}
	if weighted.MedianQuestions > plain.MedianQuestions {
		return fmt.Errorf("gate: weighted D&Q median questions %.1f exceeds plain divide-and-query's %.1f",
			weighted.MedianQuestions, plain.MedianQuestions)
	}
	return nil
}

func summarize(w io.Writer, rep *campaign.Report) {
	fmt.Fprintf(w, "mutation campaign: %d subjects, %d sites enumerated, %d mutants evaluated (seed %d, %d workers, %s)\n",
		rep.Subjects, rep.Enumerated, rep.Mutants, rep.Seed, rep.Workers,
		time.Duration(rep.ElapsedMS)*time.Millisecond)
	fmt.Fprintf(w, "  killed %d  survived %d  timeout %d  stillborn %d  panics %d  equivalent %d   kill rate %.1f%%\n",
		rep.Killed, rep.Survived, rep.Timeout, rep.Stillborn, rep.Panics, rep.Equivalent, 100*rep.KillRate())
	if rep.Equivalent > 0 {
		fmt.Fprintf(w, "  %d mutants proven equivalent by static triage (never executed, excluded from kill rate)\n", rep.Equivalent)
	}
	if rep.DebugSkipped > 0 {
		fmt.Fprintf(w, "  debug skipped on %d oversized trees\n", rep.DebugSkipped)
	}
	for _, msg := range rep.SubjectErrors {
		fmt.Fprintf(w, "  subject error: %s\n", msg)
	}

	fmt.Fprintf(w, "\n%-18s %8s %8s %8s %8s %8s %10s\n", "operator", "mutants", "killed", "survived", "timeout", "equiv", "kill rate")
	for _, op := range sortedKeys(rep.ByOperator) {
		st := rep.ByOperator[op]
		fmt.Fprintf(w, "%-18s %8d %8d %8d %8d %8d %9.1f%%\n",
			op, st.Mutants, st.Killed, st.Survived, st.Timeout, st.Equivalent, 100*st.KillRate)
	}

	fmt.Fprintf(w, "\n%-18s %9s %10s %11s %8s %8s %6s %8s %7s\n",
		"strategy", "sessions", "localized", "rate", "mean q", "med q", "max q", "asserts", "tests")
	for _, name := range sortedKeys(rep.ByStrategy) {
		st := rep.ByStrategy[name]
		fmt.Fprintf(w, "%-18s %9d %10d %10.1f%% %8.2f %8.1f %6d %8d %7d\n",
			name, st.Sessions, st.Localized, 100*st.LocalizationRate,
			st.MeanQuestions, st.MedianQuestions, st.MaxQuestions, st.ByAssertions, st.ByTests)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
