package main

import (
	"errors"
	"io"
	"strings"

	"gadt/internal/analysis/lint"
	"gadt/internal/campaign"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/obs"
	"gadt/internal/pascal/interp"
	"gadt/internal/pascal/parser"
	"gadt/internal/pascal/sem"
	"gadt/internal/pascal/vm"
	"gadt/internal/transform"
)

// program is one Pascal program with its input.
type program struct {
	file, source, input string
}

func analyze(pr program) (*sem.Info, error) {
	prog, err := parser.ParseProgram(pr.file, pr.source)
	if err != nil {
		return nil, err
	}
	return sem.Analyze(prog)
}

// runUntransformed executes a program on the interpreter without any
// transformation and returns its output.
func runUntransformed(pr program, fuel, depth int) (string, error) {
	info, err := analyze(pr)
	if err != nil {
		return "", err
	}
	var out strings.Builder
	err = interp.New(info, interp.Config{
		Input:    strings.NewReader(pr.input),
		Output:   &out,
		MaxSteps: fuel,
		MaxDepth: depth,
	}).Run()
	return out.String(), err
}

func budgetExhausted(err error) bool {
	return errors.Is(err, interp.ErrFuelExhausted) || errors.Is(err, interp.ErrDepthExhausted)
}

// probeFrontEnd times parse, sem and the full transformation.
func probeFrontEnd(p *prober, progs []program) {
	p.time("parse", len(progs), func(i int) func() {
		pr := progs[i]
		return func() { _, _ = parser.ParseProgram(pr.file, pr.source) }
	})
	p.time("sem", len(progs), func(i int) func() {
		prog, err := parser.ParseProgram(progs[i].file, progs[i].source)
		if err != nil {
			return nil
		}
		return func() { _, _ = sem.Analyze(prog) }
	})
	p.time("transform", len(progs), func(i int) func() {
		info, err := analyze(progs[i])
		if err != nil {
			return nil
		}
		return func() { _, _ = transform.Apply(info) }
	})
}

func probeLint(p *prober, progs []program) {
	p.time("lint", len(progs), func(i int) func() {
		info, err := analyze(progs[i])
		if err != nil {
			return nil
		}
		src := progs[i].source
		return func() { lint.RunInfo(info, src, lint.Options{}) }
	})
}

// probeMutation times mutant enumeration and equivalence triage.
func probeMutation(p *prober, subjects []campaign.Subject) {
	p.time("enumerate", len(subjects), func(i int) func() {
		s := subjects[i]
		return func() { _, _ = mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{}) }
	})
	p.time("triage", len(subjects), func(i int) func() {
		s := subjects[i]
		en, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{})
		if err != nil {
			return nil
		}
		return func() { mutate.TriageEquivalent(en) }
	})
}

// probeTrace times System.TraceLimited on already transformed programs.
func probeTrace(p *prober, progs []program, fuel, depth int) {
	p.time("trace", len(progs), func(i int) func() {
		pr := progs[i]
		sys, err := gadt.Load(pr.file, pr.source)
		if err != nil {
			return nil
		}
		if _, err := sys.Transform(); err != nil {
			return nil
		}
		return func() { _, _ = sys.TraceLimited(pr.input, fuel, depth) }
	})
}

// probeExecution times untraced runs on both engines and VM compilation.
func probeExecution(p *prober, progs []program, fuel, depth int) {
	cfg := func(pr program) interp.Config {
		return interp.Config{Input: strings.NewReader(pr.input), Output: io.Discard, MaxSteps: fuel, MaxDepth: depth}
	}
	p.time("run_interp", len(progs), func(i int) func() {
		info, err := analyze(progs[i])
		if err != nil {
			return nil
		}
		it := interp.New(info, cfg(progs[i]))
		return func() { _ = it.Run() }
	})
	p.time("vm_compile", len(progs), func(i int) func() {
		info, err := analyze(progs[i])
		if err != nil {
			return nil
		}
		return func() { _, _ = vm.Compile(info) }
	})
	p.time("run_vm", len(progs), func(i int) func() {
		info, err := analyze(progs[i])
		if err != nil {
			return nil
		}
		code, err := vm.Compile(info)
		if err != nil {
			return nil // the VM refuses this program; the harness falls back
		}
		m := vm.New(code, cfg(progs[i]))
		return func() { _ = m.Run() }
	})
}

// spanSink collects the durations, in milliseconds, of the ended spans
// with one name: the per-item spans the campaign pools already emit.
// The tracer serializes Emit calls.
type spanSink struct {
	name string
	ms   []float64
}

func (s *spanSink) Emit(e obs.TraceEvent) {
	if e.Phase == "E" && e.Name == s.name {
		s.ms = append(s.ms, float64(e.DurUS)/1e3)
	}
}

// itemTracer returns a tracer whose per-item spans land in a spanSink;
// reg, when non-nil, also receives the phase.<name> histograms.
func itemTracer(name string, reg *obs.Registry) (*obs.Tracer, *spanSink) {
	sink := &spanSink{name: name}
	tr := obs.NewTracer(sink)
	tr.Metrics = reg
	return tr, sink
}
