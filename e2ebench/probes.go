package main

import (
	"time"
)

// prober times individual calls into one layer's public functions on a
// sample of the workload's own inputs, single-threaded, after the timed
// phases. Each layer gets the same time budget and call cap; the report
// is the median per call and the number of calls.
type prober struct {
	budget   time.Duration
	maxCalls int
	durs     map[string][]time.Duration
}

func newProber(o options) *prober {
	p := &prober{
		budget:   time.Duration(o.seconds) * 30 * time.Millisecond,
		maxCalls: 400,
		durs:     make(map[string][]time.Duration),
	}
	if o.tiny {
		p.maxCalls = 3
	}
	return p
}

// time probes a layer over n inputs, cycling through them. prepare(i)
// does the untimed preparation for input i and returns the call to
// time, or nil to skip the input.
func (p *prober) time(layer string, n int, prepare func(i int) func()) {
	if n == 0 {
		return
	}
	deadline := time.Now().Add(p.budget)
	for i := 0; len(p.durs[layer]) < p.maxCalls && time.Now().Before(deadline); i++ {
		if i >= n && len(p.durs[layer]) == 0 {
			return // no input applies
		}
		call := prepare(i % n)
		if call == nil {
			continue
		}
		start := time.Now()
		call()
		p.durs[layer] = append(p.durs[layer], time.Since(start))
	}
}

// report writes <layer>.us_per_call (debug: us_per_session) and the
// call count for every probed layer.
func (p *prober) report(m map[string]float64) {
	for _, l := range probedLayers {
		d := p.durs[l]
		us := make([]float64, len(d))
		for i, x := range d {
			us[i] = float64(x.Nanoseconds()) / 1e3
		}
		per, count := layerMetricNames(l)
		m[per] = median(us)
		m[count] = float64(len(d))
	}
}
