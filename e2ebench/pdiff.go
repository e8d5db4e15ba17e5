package main

import (
	"math/rand"
	"runtime"

	"gadt/internal/diffharness"
	"gadt/internal/obs"
)

// The pdiff-vm workload runs diffharness.Run on the bytecode VM with the
// corpus included. Pass i generates its random programs from its own
// seed, so no two passes compare the same random program.
//
// A run compares 80 random programs per 6 s of --seconds, about a sixth
// of what it could: the VM's compile cache keeps every compiled program
// for the life of the process (about 1 MiB per random program), so more
// programs would cost memory rather than precision. A 30 s run makes
// five passes and peaks near 630 MB resident.
const (
	pdiffPrograms    = 80
	pdiffPassSeconds = 6.0
	pdiffFuel        = 1_000_000
	pdiffDepth       = 2_000
)

type pdiffWorkload struct {
	o        options
	programs int
	// subjects are pass 0's subjects, the probes' inputs.
	subjects []diffharness.Subject
	reports  []*diffharness.Report
}

func (w *pdiffWorkload) config(i int) diffharness.Config {
	return diffharness.Config{
		Programs: w.programs,
		Seed:     w.o.seed*1_000_003 + int64(i*w.programs),
		Corpus:   true,
		Backend:  "vm",
		Workers:  runtime.NumCPU(),
		Fuel:     pdiffFuel,
	}
}

func (w *pdiffWorkload) setup(o options) error {
	w.o = o
	w.programs = pdiffPrograms
	if o.tiny {
		w.programs = 4
	}
	// The run's inputs: every pass's subjects. The harness regenerates
	// them from the same seeds; the probes use pass 0's.
	for i := 0; i < w.passes(o); i++ {
		subs := diffharness.Subjects(w.config(i))
		if i == 0 {
			w.subjects = subs
		}
	}
	return nil
}

func (w *pdiffWorkload) passes(o options) int {
	return max(1, int(float64(o.seconds)/pdiffPassSeconds+0.5))
}

func (w *pdiffWorkload) pass(i int, reg *obs.Registry) (int, latencies, error) {
	tr, spans := itemTracer("compare", reg)
	cfg := w.config(i)
	cfg.Metrics, cfg.Tracer = reg, tr
	rep, err := diffharness.Run(cfg)
	if err != nil {
		return 0, latencies{}, err
	}
	w.reports = append(w.reports, rep)
	return len(rep.Outcomes), latencies{all: spans.ms}, nil
}

// check counts every comparison; divergent ones are wrong outputs, and
// panics and wall-clock timeouts are failures.
func (w *pdiffWorkload) check() checkResult {
	var c checkResult
	for _, rep := range w.reports {
		c.attempted += len(rep.Outcomes)
		for _, o := range rep.Outcomes {
			switch o.Status {
			case diffharness.StatusDivergent:
				c.fail(true)
			case diffharness.StatusPanic, diffharness.StatusTimeout:
				c.fail(false)
			}
		}
	}
	return c
}

func (w *pdiffWorkload) layerMetrics(m map[string]float64) {
	rejected := 0
	for _, rep := range w.reports {
		rejected += rep.Rejected
	}
	m["diff.rejected"] = float64(rejected) / float64(len(w.reports))
}

func (w *pdiffWorkload) probe(p *prober) {
	progs := make([]program, len(w.subjects))
	for i, s := range w.subjects {
		progs[i] = program{s.Name + ".pas", s.Source, s.Input}
	}
	rand.New(rand.NewSource(w.o.seed)).Shuffle(len(progs), func(i, j int) { progs[i], progs[j] = progs[j], progs[i] })
	progs = progs[:min(len(progs), 60)]
	probeFrontEnd(p, progs)
	probeExecution(p, progs, pdiffFuel, pdiffDepth)
}
