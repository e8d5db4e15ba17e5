package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"

	"gadt/internal/assertion"
	"gadt/internal/campaign"
	"gadt/internal/debugger"
	"gadt/internal/gadt"
	"gadt/internal/mutate"
	"gadt/internal/obs"
	"gadt/internal/tgen"
)

// The pmut workload runs campaign.Run over the default subjects on the
// interpreter with harvesting on, over a seeded sample of the
// non-equivalent mutants. Pass 0 samples with the workload seed and
// pass i with seed + i*pmutSeedStride, so a run covers most of the
// population and its median pass is steady across seeds.
const (
	pmutBudget      = 1000
	pmutSeedStride  = 1_000_003
	pmutPassSeconds = 3.5 // nominal length of one pass on a 2-CPU host
	pmutFuel        = 60_000
	pmutDepth       = 1_000
	pmutTreeCap     = 4_000 // campaign default: larger trees are not debugged
)

type mutantKey struct {
	subject string
	id      int
}

type pmutWorkload struct {
	o        options
	subjects []campaign.Subject
	// refOut is each subject's untransformed output; mutants holds every
	// enumerated mutant, for the independent verdicts.
	refOut   map[string]string
	mutants  map[mutantKey]*mutate.Mutant
	verdicts map[mutantKey]string
	reports  []*campaign.Report
}

func (w *pmutWorkload) budget() int {
	if w.o.tiny {
		return 12
	}
	return pmutBudget
}

func (w *pmutWorkload) setup(o options) error {
	w.o = o
	w.subjects = campaign.DefaultSubjects()
	w.refOut = make(map[string]string)
	w.mutants = make(map[mutantKey]*mutate.Mutant)
	w.verdicts = make(map[mutantKey]string)
	for _, s := range w.subjects {
		out, err := runUntransformed(program{s.Name + ".pas", s.Source, s.Input}, pmutFuel, pmutDepth)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", s.Name, err)
		}
		w.refOut[s.Name] = out
		en, err := mutate.EnumerateProgram(s.Name+".pas", s.Source, mutate.Config{})
		if err != nil {
			return err
		}
		for _, m := range en.Mutants {
			w.mutants[mutantKey{s.Name, m.ID}] = m
		}
	}
	return nil
}

func (w *pmutWorkload) passes(o options) int {
	return max(1, int(float64(o.seconds)/pmutPassSeconds+0.5))
}

func (w *pmutWorkload) pass(i int, reg *obs.Registry) (int, latencies, error) {
	tr, spans := itemTracer("mutant", reg)
	rep, err := campaign.Run(campaign.Config{
		Subjects: w.subjects,
		Seed:     w.o.seed + int64(i)*pmutSeedStride,
		Budget:   w.budget(),
		Workers:  runtime.NumCPU(),
		Backend:  "interp",
		Metrics:  reg,
		Tracer:   tr,
	})
	if err != nil {
		return 0, latencies{}, err
	}
	if len(rep.SubjectErrors) > 0 {
		return 0, latencies{}, fmt.Errorf("subject errors: %v", rep.SubjectErrors)
	}
	w.reports = append(w.reports, rep)
	return len(spans.ms), latencies{all: spans.ms}, nil
}

// check verifies every evaluated mutant of every pass: panics, stillborn
// mutants and debugging-session errors are failures, and a killed or
// survived verdict must match an independent run of the untransformed
// mutant against the untransformed subject.
func (w *pmutWorkload) check() checkResult {
	var c checkResult
	for _, rep := range w.reports {
		for _, o := range rep.Outcomes {
			if o.Status == campaign.StatusEquivalent {
				continue // proven statically; the campaign never runs it
			}
			c.attempted++
			switch o.Status {
			case campaign.StatusPanic, campaign.StatusStillborn:
				c.fail(false)
			case campaign.StatusKilled, campaign.StatusSurvived:
				if w.verdict(o) != o.Status {
					c.fail(true)
				}
			}
			for _, s := range o.Strategies {
				c.attempted++
				if s.Error != "" {
					c.fail(false)
				}
			}
		}
	}
	return c
}

// verdict is the independent killed/survived/timeout verdict on one
// mutant: the untransformed mutant on the interpreter against the
// untransformed subject, under the campaign's budgets.
func (w *pmutWorkload) verdict(o campaign.MutantOutcome) string {
	k := mutantKey{o.Subject, o.MutantID}
	if v, ok := w.verdicts[k]; ok {
		return v
	}
	v := "missing"
	if m := w.mutants[k]; m != nil {
		out, err := runUntransformed(program{o.Subject + ".pas", m.Source, w.subject(o.Subject).Input}, pmutFuel, pmutDepth)
		switch {
		case budgetExhausted(err):
			v = campaign.StatusTimeout
		case err != nil || out != w.refOut[o.Subject]:
			v = campaign.StatusKilled
		default:
			v = campaign.StatusSurvived
		}
	}
	w.verdicts[k] = v
	return v
}

func (w *pmutWorkload) subject(name string) campaign.Subject {
	for _, s := range w.subjects {
		if s.Name == name {
			return s
		}
	}
	return campaign.Subject{}
}

func (w *pmutWorkload) layerMetrics(m map[string]float64) {
	var sessions, questions, correct, auto int
	for _, rep := range w.reports {
		for _, o := range rep.Outcomes {
			for _, s := range o.Strategies {
				sessions++
				questions += s.Questions
				auto += s.ByAssertions + s.ByTests
				if s.Correct {
					correct++
				}
			}
		}
	}
	m["debugger.questions_per_session"] = share(float64(questions), float64(sessions))
	m["debugger.correct_blame_share"] = share(float64(correct), float64(sessions))
	m["debugger.auto_answer_share"] = share(float64(auto), float64(auto+questions))
}

// pmutSubjectRun is a subject's traced reference run with its harvest.
type pmutSubjectRun struct {
	subject campaign.Subject
	run     *gadt.Run
	tests   *tgen.CallDB
	asserts *assertion.DB
}

func (w *pmutWorkload) probe(p *prober) {
	rng := rand.New(rand.NewSource(w.o.seed))
	keys := make([]mutantKey, 0, len(w.mutants))
	for k := range w.mutants {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].subject != keys[j].subject {
			return keys[i].subject < keys[j].subject
		}
		return keys[i].id < keys[j].id
	})
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(len(keys), 60)]
	var progs []program
	for _, k := range keys {
		progs = append(progs, program{k.subject + ".pas", w.mutants[k].Source, w.subject(k.subject).Input})
	}
	probeFrontEnd(p, progs)

	subjects := w.subjects
	probeMutation(p, subjects)

	refs := make(map[string]*pmutSubjectRun)
	for _, s := range subjects {
		sys, err := gadt.Load(s.Name+".pas", s.Source)
		if err != nil {
			continue
		}
		run, err := sys.TraceLimited(s.Input, pmutFuel, pmutDepth)
		if err != nil || run.RunErr != nil {
			continue
		}
		refs[s.Name] = &pmutSubjectRun{
			subject: s,
			run:     run,
			tests:   tgen.NewCallDB().HarvestTree(run.Tree),
			asserts: assertion.Generalize(run.Tree.Nodes, assertion.GeneralizeOptions{}),
		}
	}
	p.time("harvest", len(subjects), func(i int) func() {
		r := refs[subjects[i].Name]
		if r == nil {
			return nil
		}
		return func() {
			tgen.NewCallDB().HarvestTree(r.run.Tree)
			assertion.Generalize(r.run.Tree.Nodes, assertion.GeneralizeOptions{})
		}
	})
	probeTrace(p, progs, pmutFuel, pmutDepth)
	p.time("oracle_build", len(subjects), func(i int) func() {
		src := subjects[i].Source
		return func() { _, _ = gadt.IntendedOracleLimited(src, pmutFuel) }
	})

	strategies := debugger.Strategies()
	p.time("debug", len(keys), func(i int) func() {
		k := keys[i]
		r := refs[k.subject]
		if r == nil {
			return nil
		}
		sys, err := gadt.Load(k.subject+".pas", w.mutants[k].Source)
		if err != nil {
			return nil
		}
		run, err := sys.TraceLimited(r.subject.Input, pmutFuel, pmutDepth)
		if err != nil || budgetExhausted(run.RunErr) || run.Tree.Size() > pmutTreeCap ||
			(run.RunErr == nil && run.Output == r.run.Output) {
			return nil // not a killed mutant the campaign would debug
		}
		oracle, err := gadt.IntendedOracleLimited(r.subject.Source, pmutFuel)
		if err != nil {
			return nil
		}
		cfg := gadt.DebugConfig{
			Strategy:     strategies[i%len(strategies)],
			Slicing:      true,
			MaxQuestions: 2000,
			Assertions:   r.asserts,
			Tests:        r.tests,
		}
		if r.asserts.Len() == 0 {
			cfg.Assertions = nil
		}
		return func() { _, _ = run.Debug(oracle, cfg) }
	})
}
