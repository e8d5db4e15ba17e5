package main

// metricDef declares one reported metric.
type metricDef struct {
	name, unit string
}

// endToEndMetrics are reported by --trace 0 on every workload. An item
// is the workload's unit of work: a mutant evaluation (pmut), a
// comparison (pdiff-vm) or an HTTP request (serve).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"items_per_s", "1/s"},
	{"item_p50_ms", "ms"},
	{"item_p90_ms", "ms"},
	{"cpu_s", "s"},
	{"heap_mb", "MB"},
	{"pass_share", "share"},
}

// probedLayers are the layers the prober times, in report order; each
// reports <layer>.us_per_call (debug: us_per_session) and a call count.
var probedLayers = []string{
	"parse", "sem", "transform", "lint", "enumerate", "triage", "harvest",
	"trace", "oracle_build", "debug", "run_interp", "vm_compile", "run_vm",
}

// layerMetricNames are the names of a probed layer's time per call and
// call count.
func layerMetricNames(layer string) (per, count string) {
	if layer == "debug" {
		return "debug.us_per_session", "debug.sessions"
	}
	return layer + ".us_per_call", layer + ".calls"
}

// cpuLayers are the cpu_share.<layer> buckets of the traced run's CPU
// profile.
var cpuLayers = []string{
	"parser", "sem", "transform", "lint", "mutate", "absint", "interp", "vm",
	"exectree", "dynamic", "debugger", "assertion", "tgen", "serve",
	"runtime_gc", "other",
}

// perLayerMetrics are reported by --trace 1 on every workload; a figure
// a workload does not have reads 0. README.md lists the end-to-end
// metric each should move.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	for _, l := range probedLayers {
		per, count := layerMetricNames(l)
		defs = append(defs, metricDef{per, "us"}, metricDef{count, "count"})
	}
	defs = append(defs, []metricDef{
		{"debugger.questions_per_session", "count"},
		{"debugger.correct_blame_share", "share"},
		{"debugger.auto_answer_share", "share"},
		{"serve.cache_hit_ratio.artifact", "share"},
		{"serve.cache_hit_ratio.trace", "share"},
		{"serve.ttfq_p50_ms", "ms"},
		{"serve.ttfq_p99_ms", "ms"},
		{"serve.answer_p50_ms", "ms"},
		{"serve.answer_p99_ms", "ms"},
		{"loadgen.late_p99_ms", "ms"},
		{"diff.rejected", "count"},
		{"gc_cpu_share", "share"},
		{"allocs_per_op", "count"},
		{"alloc_bytes_per_op", "B"},
	}...)
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu_share." + l, "share"})
	}
	return append(defs, metricDef{"trace_overhead_share", "ratio"})
}
