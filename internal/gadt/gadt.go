// Package gadt is the top-level facade of the Generalized Algorithmic
// Debugging and Testing system, wiring the paper's three phases
// (Figure 3) into one API:
//
//  1. Transformation phase — side-effect analysis and program
//     transformation to a form without global side-effects
//     (package transform).
//  2. Tracing phase — execution of the transformed program building the
//     execution tree (package exectree); the dynamic dependence graph
//     (package slicing/dynamic) is built on the first slice request by
//     deterministic replay.
//  3. Debugging phase — algorithmic debugging with assertion lookup,
//     category-partition test lookup and program slicing
//     (packages debugger, assertion, tgen).
//
// Typical use:
//
//	sys, err := gadt.Load("bug.pas", source)
//	run, err := sys.Trace(gadt.TraceOpts{Input: input}) // phases 1–2
//	ref, err := gadt.Load("fixed.pas", fixedSource)
//	oracle, err := ref.Oracle(gadt.TraceOpts{})         // intended semantics
//	out, err := run.Debug(oracle, gadt.DebugConfig{     // phase 3
//	    Slicing: true,
//	})
//	if out.Localized() { fmt.Println(out.Reason) }
//
// Set TraceOpts.Original on both the trace and the oracle to debug the
// program as written, without the transformation phase.
package gadt

import (
	"fmt"
	"strings"
	"sync"

	"gadt/internal/analysis/lint"
	"gadt/internal/assertion"
	"gadt/internal/debugger"
	"gadt/internal/exectree"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/printer"
	"gadt/internal/pascal/sem"
	"gadt/internal/slicing/dynamic"
	"gadt/internal/slicing/static"
	"gadt/internal/transform"
)

// System is a loaded subject program.
type System struct {
	File   string
	Source string

	// Info is the semantic analysis of the original program.
	Info *sem.Info

	// Transformed is the transformation-phase result, computed lazily by
	// the first transformed Trace or Oracle (or eagerly by Transform).
	Transformed *transform.Result

	// Metrics and Tracer, when non-nil, observe every phase run through
	// this system: phase spans (parse, sem, transform, trace, debug) and
	// the per-layer counters documented in README.md. Both are nil-safe
	// throughout, so an unobserved system pays nothing.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
}

// Load parses and analyzes a subject program.
func Load(file, source string) (*System, error) {
	return LoadObserved(file, source, nil, nil)
}

// LoadObserved is Load with observability attached: the registry and
// tracer (either may be nil) observe this load and every later phase of
// the returned system.
func LoadObserved(file, source string, m *obs.Registry, t *obs.Tracer) (*System, error) {
	sp := t.Start("parse")
	prog, err := parser.ParseProgram(file, source)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = t.Start("sem")
	info, err := sem.Analyze(prog)
	sp.End()
	if err != nil {
		return nil, err
	}
	return &System{File: file, Source: source, Info: info, Metrics: m, Tracer: t}, nil
}

// FromTransformed wraps an already-transformed program as a system,
// for a caller that built and transformed the AST itself (the mutation
// campaign). It has no analysis of the original program: Info is nil,
// so Trace and Oracle with TraceOpts.Original fail, and the analyses of
// the original (Lint, StaticSlicer) must not be used.
func FromTransformed(file string, res *transform.Result) *System {
	return &System{File: file, Transformed: res}
}

// Transform runs the transformation phase (idempotent).
func (s *System) Transform() (*transform.Result, error) {
	if s.Transformed != nil {
		return s.Transformed, nil
	}
	sp := s.Tracer.Start("transform")
	res, err := transform.Apply(s.Info)
	sp.End()
	if err != nil {
		return nil, err
	}
	res.RecordMetrics(s.Metrics)
	s.Transformed = res
	return res, nil
}

// TransformedSource renders the transformed program (the internal form
// the user normally never sees, Section 6.1).
func (s *System) TransformedSource() (string, error) {
	res, err := s.Transform()
	if err != nil {
		return "", err
	}
	return printer.Print(res.Program), nil
}

// StaticSlicer builds the SDG-based interprocedural slicer over the
// ORIGINAL program (Section 4).
func (s *System) StaticSlicer() *static.Slicer {
	return static.New(s.Info)
}

// Lint runs the dataflow anomaly checks over the ORIGINAL program.
func (s *System) Lint(opts lint.Options) []lint.Diagnostic {
	sp := s.Tracer.Start("lint")
	diags := lint.RunInfo(s.Info, s.Source, opts)
	sp.End()
	lint.Record(s.Metrics, diags)
	return diags
}

// LintHints aggregates the lint findings into per-unit suspiciousness
// scores for DebugConfig.Hints: the debugger asks about invocations of
// statically anomalous routines first, spending fewer oracle questions
// when an anomaly and the bug coincide — the cheapest oracle question is
// the one never asked.
func (s *System) LintHints() map[string]float64 {
	return lint.Hints(s.Lint(lint.Options{}))
}

// Run is a completed tracing phase: the execution tree of the program
// (transformed unless TraceOpts.Original). The dynamic dependence graph
// is not recorded by the trace; SliceOnOutput builds it on first use.
type Run struct {
	System *System
	Tree   *exectree.Tree
	Output string
	RunErr error // runtime error of the traced execution, if any
	Steps  int

	info *sem.Info // the analysis that was executed
	opts TraceOpts

	recOnce sync.Once
	rec     *dynamic.Recorder
	recErr  error
}

// TraceOpts configures a tracing phase. Oracle reads MaxSteps and
// Original only.
type TraceOpts struct {
	Input string
	// MaxSteps and MaxDepth bound the execution: it stops with
	// interp.ErrFuelExhausted after MaxSteps statements and errors past
	// MaxDepth call depth (<= 0 uses interpreter defaults), so a planted
	// infinite loop yields a bounded partial tree, not a hung worker.
	MaxSteps int
	MaxDepth int
	// Original skips the transformation phase and traces the program as
	// written (no loop units, no goto/global rewrites).
	Original bool
}

// traceInfo returns the analysis a trace or oracle executes: the
// transformed program (transforming on first use) unless original.
func (s *System) traceInfo(original bool) (*sem.Info, error) {
	if original {
		if s.Info == nil {
			return nil, fmt.Errorf("gadt: %s has no analysis of the original program", s.File)
		}
		return s.Info, nil
	}
	res, err := s.Transform()
	if err != nil {
		return nil, err
	}
	return res.Info, nil
}

// Trace runs phases 1–2: transform (unless o.Original; done once) and
// execute with tracing. A runtime error in the subject program is
// reported in Run.RunErr but still yields the partial tree (crashes are
// debuggable).
func (s *System) Trace(o TraceOpts) (*Run, error) {
	info, err := s.traceInfo(o.Original)
	if err != nil {
		return nil, err
	}
	sp := s.Tracer.Start("trace")
	tr := exectree.TraceWith(info, exectree.TraceOpts{
		Input:    o.Input,
		Metrics:  s.Metrics,
		MaxSteps: o.MaxSteps,
		MaxDepth: o.MaxDepth,
	})
	sp.End()
	return &Run{
		System: s,
		Tree:   tr.Tree,
		Output: tr.Output,
		RunErr: tr.Err,
		Steps:  tr.Steps,
		info:   info,
		opts:   o,
	}, nil
}

// SliceOnOutput computes the dynamic slice of the execution tree t on
// the given output of invocation n (see dynamic.Recorder.SliceOnOutput).
// The first call builds the dynamic dependence graph by replaying the
// traced program once with the same input and budgets; the interpreter
// is deterministic, so the replay's invocation IDs are the tree's node
// IDs. Safe for concurrent use: sessions sharing one Run share one
// replay.
func (r *Run) SliceOnOutput(t *exectree.Tree, n *exectree.Node, output string) (*dynamic.TreeSlice, error) {
	r.recOnce.Do(r.record)
	if r.recErr != nil {
		return nil, r.recErr
	}
	return r.rec.SliceOnOutput(t, n, output)
}

// record replays the traced execution into a dynamic.Recorder and
// checks that the replay retraced the original run.
func (r *Run) record() {
	rec := dynamic.NewRecorder(r.info)
	calls := &callCounter{}
	var out strings.Builder
	it := interp.New(r.info, interp.Config{
		Input:    strings.NewReader(r.opts.Input),
		Output:   &out,
		Sink:     interp.MultiSink{rec, calls},
		MaxSteps: r.opts.MaxSteps,
		MaxDepth: r.opts.MaxDepth,
	})
	_ = it.Run() // the traced run already reported the same error
	m := r.System.Metrics
	m.Counter("slicing.dynamic.replays").Inc()
	rec.RecordMetrics(m)
	if it.Steps() != r.Steps || out.String() != r.Output || calls.n != r.Tree.Size() {
		r.recErr = fmt.Errorf("gadt: replay diverged from the traced run (%d steps, %d calls; traced %d steps, %d nodes)",
			it.Steps(), calls.n, r.Steps, r.Tree.Size())
		return
	}
	r.rec = rec
}

// callCounter counts invocations, so a replay can be checked against
// the traced tree's node count.
type callCounter struct {
	interp.NopSink
	n int
}

func (c *callCounter) EnterCall(*interp.CallInfo) { c.n++ }

// TraceLimited is Trace of the transformed program under budgets.
func (s *System) TraceLimited(input string, maxSteps, maxDepth int) (*Run, error) {
	return s.Trace(TraceOpts{Input: input, MaxSteps: maxSteps, MaxDepth: maxDepth})
}

// DebugConfig selects the debugging-phase components (Section 5.3).
type DebugConfig struct {
	Strategy   debugger.Strategy
	Assertions *assertion.DB
	Tests      debugger.TestLookup
	Slicing    bool
	// MaxQuestions bounds oracle interactions (0 = default).
	MaxQuestions int
	// Hints maps unit names to static suspiciousness scores; see
	// debugger.Options.Hints. Usually System.LintHints().
	Hints map[string]float64
	// NoRootAssumption disables the symptom premise; see
	// debugger.Options.NoRootAssumption.
	NoRootAssumption bool
}

// Debug runs the debugging phase over this trace.
func (r *Run) Debug(oracle debugger.Oracle, cfg DebugConfig) (*debugger.Outcome, error) {
	if r.Tree == nil || r.Tree.Root == nil {
		return nil, fmt.Errorf("gadt: no execution tree (program did not start)")
	}
	opts := debugger.Options{
		Strategy:         cfg.Strategy,
		Assertions:       cfg.Assertions,
		Tests:            cfg.Tests,
		Slicing:          cfg.Slicing,
		Slicer:           r,
		Meta:             r.System.Transformed,
		Hints:            cfg.Hints,
		MaxQuestions:     cfg.MaxQuestions,
		Metrics:          r.System.Metrics,
		NoRootAssumption: cfg.NoRootAssumption,
	}
	sp := r.System.Tracer.Start("debug")
	out, err := debugger.New(r.Tree, oracle, opts).Run()
	sp.End()
	return out, err
}

// DebugWithFallback runs the debugging phase and, when the caller's
// verify callback rejects the outcome (the user inspected the localized
// unit and found no bug there — possibly because a stale test report
// absorbed the real culprit), repeats the session without the test
// database: the paper's "if the bug is not localized with this combined
// method we must repeat the debugging without using the test results"
// (Section 5.3.2). Returns the first outcome, the final outcome, and
// whether a retry happened.
func (r *Run) DebugWithFallback(oracle debugger.Oracle, cfg DebugConfig, verify func(*debugger.Outcome) bool) (first, final *debugger.Outcome, retried bool, err error) {
	first, err = r.Debug(oracle, cfg)
	if err != nil {
		return nil, nil, false, err
	}
	if cfg.Tests == nil || (verify != nil && verify(first)) {
		return first, first, false, nil
	}
	cfg.Tests = nil
	final, err = r.Debug(oracle, cfg)
	if err != nil {
		return first, nil, true, err
	}
	return first, final, true, nil
}

// Oracle builds an intended-semantics oracle from this system as the
// reference implementation, transformed the same way as the subject so
// unit names line up (or untransformed, for traces with o.Original).
// o.MaxSteps bounds each reference replay (<= 0 uses the oracle's
// default). The oracle only reads the analysis, so one oracle can serve
// any number of concurrent sessions.
func (s *System) Oracle(o TraceOpts) (debugger.Oracle, error) {
	info, err := s.traceInfo(o.Original)
	if err != nil {
		return nil, fmt.Errorf("gadt: reference: %w", err)
	}
	return &debugger.IntendedOracle{Ref: info, MaxSteps: o.MaxSteps}, nil
}

// IntendedOracle builds an oracle from a reference ("intended")
// implementation, transformed the same way as the subject so unit names
// line up. The reference must be structurally identical modulo the bug.
func IntendedOracle(refSource string) (debugger.Oracle, error) {
	return IntendedOracleLimited(refSource, 0)
}

// IntendedOracleLimited is IntendedOracle with a per-query step budget
// on the reference replays, for campaigns over generated programs where
// even the reference could be driven into a long run by extreme inputs.
func IntendedOracleLimited(refSource string, maxSteps int) (debugger.Oracle, error) {
	ref, err := Load("reference.pas", refSource)
	if err != nil {
		return nil, fmt.Errorf("gadt: reference: %w", err)
	}
	return ref.Oracle(TraceOpts{MaxSteps: maxSteps})
}
