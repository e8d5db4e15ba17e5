package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
)

// higherIsBetter lists the metrics that improve upward; every other
// metric improves downward.
var higherIsBetter = map[string]bool{
	"items_per_s": true, "pass_share": true,
	"debugger.correct_blame_share": true, "debugger.auto_answer_share": true,
	"serve.cache_hit_ratio.artifact": true, "serve.cache_hit_ratio.trace": true,
}

func (d metricDef) better() string {
	if higherIsBetter[d.name] || strings.HasSuffix(d.name, ".calls") || d.name == "debug.sessions" {
		return "higher"
	}
	return "lower"
}

// declared is the part of BENCHMARK.json the benchmark must agree with.
type declared struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

func checkDeclared(t *testing.T, kind string, got []declaredMetric, defs []metricDef) {
	t.Helper()
	var want []declaredMetric
	for _, d := range defs {
		want = append(want, declaredMetric{Name: d.name, Unit: d.unit, Better: d.better()})
	}
	if len(got) != len(want) {
		t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(got), len(want))
	}
	for i := range want {
		if i >= len(got) || got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
			line, _ := json.Marshal(want[i])
			t.Errorf("%s[%d]: BENCHMARK.json has %+v, want %s", kind, i, got[min(i, len(got)-1)], line)
		}
	}
}

// TestDeclarations checks that BENCHMARK.json declares exactly the
// workloads and metrics the benchmark runs and reports.
func TestDeclarations(t *testing.T) {
	d := readDeclared(t)
	var names []string
	for _, w := range d.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	checkDeclared(t, "end_to_end", d.EndToEnd, endToEndMetrics)
	checkDeclared(t, "per_layer", d.PerLayer, perLayerMetrics)
}

// TestTinyRuns runs every workload briefly in both modes: every output
// check runs, and the result carries exactly the declared metrics.
func TestTinyRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w, seed: 1, seconds: 1, trace: trace, tiny: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed > res.Attempted {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
				sum := 0.0
				for _, l := range cpuLayers {
					sum += res.Metrics["cpu_share."+l].Value
				}
				if sum != 0 && math.Abs(sum-1) > 1e-9 {
					t.Errorf("%s: cpu_share.* sum to %v, want 1", w, sum)
				}
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: missing %s", w, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, d.name, m.Unit, d.unit)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", w, d.name, m.Value)
				}
			}
		}
	}
}
