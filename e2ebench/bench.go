package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"gadt/internal/obs"
)

// workload is one benchmark workload. A run sets it up, then times a
// number of passes over the same kind of work; outputs are recorded
// during the passes and checked afterwards, outside the timed phases.
type workload interface {
	// setup builds the workload's inputs from the seed.
	setup(o options) error
	// passes is the number of passes in a timed phase of the given
	// nominal length. It depends only on the options, never on measured
	// speed, so both sides of a comparison do the same work.
	passes(o options) int
	// pass runs pass i. reg is nil in untraced phases and the traced
	// phase's registry otherwise. It returns the items completed and
	// their latencies.
	pass(i int, reg *obs.Registry) (items int, lat latencies, err error)
	// check verifies every output recorded so far.
	check() checkResult
	// probe times the workload's layers on a sample of its inputs.
	probe(p *prober)
	// layerMetrics adds the workload's own per-layer figures.
	layerMetrics(m map[string]float64)
}

var workloads = map[string]func() workload{
	"pmut":     func() workload { return &pmutWorkload{} },
	"pdiff-vm": func() workload { return &pdiffWorkload{} },
	"serve":    func() workload { return &serveWorkload{} },
}

// An end-to-end run sets up at least minSetups times, and more, up to
// maxSetups, while the set-ups so far took under setupBudget: about
// fifteen set-ups of pmut, ten of serve, twenty-five of pdiff-vm on
// a 2-CPU host.
const (
	minSetups   = 5
	maxSetups   = 25
	setupBudget = 6 * time.Second
)

// checkResult tallies the output checks of a run. wrong counts outputs
// that disagreed with the expected result; failed counts every failed
// operation, wrong outputs included.
type checkResult struct {
	attempted, failed, wrong int
}

func (c *checkResult) fail(wrong bool) {
	c.failed++
	if wrong {
		c.wrong++
	}
}

// latencies are item latencies in milliseconds. tail, when set, is the
// population item_p90_ms is taken over instead of all.
type latencies struct {
	all, tail []float64
}

// phase is what one timed phase measured.
type phase struct {
	wall  time.Duration
	cpu   time.Duration
	items int
	// rates, p50s, p90s and mems are each pass's items per second, item
	// latency percentiles and live heap; a phase reports their medians,
	// so one disturbed pass does not move it, except for p90s: a pass
	// that other tenants of the host stall raises its tail far more than
	// its median (on serve, per-pass p90s of one run range over 1.6x),
	// so the phase reports their lower quartile. A slower program slows
	// every pass and still moves it.
	rates, p50s, p90s, mems []float64
	gcCPU                   float64 // runtime/metrics GC CPU seconds
	totalCPU                float64 // runtime/metrics total CPU seconds
	allocObjs               float64
	allocBytes              float64
}

func run(o options) (*result, error) {
	mk, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	// setup_s is the median set-up time. A traced run sets up once.
	var w workload
	var setups []float64
	var spent time.Duration
	for {
		w = mk()
		runtime.GC()
		start := time.Now()
		if err := w.setup(o); err != nil {
			return nil, fmt.Errorf("%s setup: %w", o.workload, err)
		}
		d := time.Since(start)
		spent += d
		setups = append(setups, d.Seconds())
		if o.trace || len(setups) == maxSetups || len(setups) >= minSetups && spent >= setupBudget {
			break
		}
	}

	n := w.passes(o)
	if o.trace {
		n = (n + 1) / 2
	}
	plain, err := measure(w, 0, n, nil)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		c := w.check()
		return newResult(c, map[string]float64{
			"setup_s":     median(setups),
			"items_per_s": median(plain.rates),
			"item_p50_ms": median(plain.p50s),
			"item_p90_ms": quantile(plain.p90s, 0.25),
			"cpu_s":       plain.cpu.Seconds(),
			"heap_mb":     median(plain.mems),
			"pass_share":  1 - float64(c.failed)/float64(c.attempted),
		}, endToEndMetrics)
	}

	// Traced phase: the same number of passes over fresh inputs of the
	// same kind, with the obs hooks attached and a CPU profile running.
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced, err := measure(w, n, n, obs.NewRegistry())
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	c := w.check()

	m := map[string]float64{
		"trace_overhead_share": traced.wall.Seconds() / plain.wall.Seconds(),
		"gc_cpu_share":         plain.gcCPU / plain.totalCPU,
		"allocs_per_op":        plain.allocObjs / float64(plain.items),
		"alloc_bytes_per_op":   plain.allocBytes / float64(plain.items),
	}
	for layer, s := range shares {
		m["cpu_share."+layer] = s
	}
	p := newProber(o)
	w.probe(p)
	p.report(m)
	w.layerMetrics(m)
	return newResult(c, m, perLayerMetrics)
}

// newResult assembles the result line: every declared metric appears,
// with zero for a per-layer figure the workload does not have.
func newResult(c checkResult, values map[string]float64, defs []metricDef) (*result, error) {
	if c.attempted < 1 {
		return nil, fmt.Errorf("no output was checked")
	}
	res := &result{
		Correct:   c.wrong == 0,
		Attempted: c.attempted,
		Failed:    c.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
		delete(values, d.name)
	}
	for name := range values {
		return nil, fmt.Errorf("metric %q is not declared", name)
	}
	return res, nil
}

// measure runs passes [from, from+n) and records wall time, process CPU
// time, runtime GC and allocation counters, items and latencies.
func measure(w workload, from, n int, reg *obs.Registry) (*phase, error) {
	runtime.GC()
	before := readRuntime()
	cpu0 := processCPU()
	start := time.Now()
	ph := &phase{}
	for i := from; i < from+n; i++ {
		stop := sampleMemory()
		passStart := time.Now()
		items, lat, err := w.pass(i, reg)
		ph.rates = append(ph.rates, float64(items)/time.Since(passStart).Seconds())
		ph.mems = append(ph.mems, stop())
		if err != nil {
			return nil, fmt.Errorf("pass %d: %w", i, err)
		}
		if lat.tail == nil {
			lat.tail = lat.all
		}
		ph.items += items
		ph.p50s = append(ph.p50s, quantile(lat.all, 0.50))
		ph.p90s = append(ph.p90s, quantile(lat.tail, 0.90))
	}
	ph.wall = time.Since(start)
	ph.cpu = processCPU() - cpu0
	after := readRuntime()
	ph.gcCPU = after[0] - before[0]
	ph.totalCPU = after[1] - before[1]
	ph.allocObjs = after[2] - before[2]
	ph.allocBytes = after[3] - before[3]
	if ph.items == 0 {
		return nil, fmt.Errorf("passes completed no items")
	}
	return ph, nil
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// readRuntime reads runtimeSamples as float64s, in order.
func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sampleMemory samples the live heap the garbage collector measured
// last (runtime/metrics /gc/heap/live:bytes) every few milliseconds
// until the returned stop function is called, which returns the median
// sample in MB (10^6 bytes): the memory the program holds through the pass. Peak and
// resident figures are left out because they hinge on when collections
// happen to run, which varies from run to run.
func sampleMemory() (stop func() float64) {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	var mb []float64
	read := func() {
		metrics.Read(s)
		mb = append(mb, float64(s[0].Value.Uint64())/1e6)
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-done:
				read()
				return
			}
		}
	}()
	return func() float64 {
		close(done)
		<-exited
		return median(mb)
	}
}
