package main

import (
	"io"
	"regexp"
	"testing"
	"time"

	"pragformer/internal/advisor"
)

// TestBenchmarkFileMatchesHarness fails when BENCHMARK.json names a
// workload or a metric the harness does not print, or the reverse, or when
// a name or unit is outside what the driver accepts.
func TestBenchmarkFileMatchesHarness(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	sameNames(t, "workloads", listed, have, name)

	check := func(kind string, file []boundedMetric, harness []metricDef, bounded bool) {
		units := map[string]string{}
		var listed, have []string
		for _, m := range harness {
			have = append(have, m.Name)
			units[m.Name] = m.Unit
		}
		for _, m := range file {
			listed = append(listed, m.Name)
			if !unit.MatchString(m.Unit) || m.Unit != units[m.Name] {
				t.Errorf("%s %s: unit %q in the file, %q in the harness", kind, m.Name, m.Unit, units[m.Name])
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s %s: better is %q", kind, m.Name, m.Better)
			}
			// A metric that does not repeat within a tenth is printed only;
			// setup_s, which the driver's contract requires, may go to the
			// contract's limit.
			limit := 0.10
			if m.Name == "setup_s" {
				limit = 0.25
			}
			if bounded && (m.Bound <= 0 || m.Bound > limit) {
				t.Errorf("%s %s: bound %v is outside (0, %v]", kind, m.Name, m.Bound, limit)
			}
		}
		sameNames(t, kind, listed, have, name)
	}
	check("end_to_end", bf.EndToEnd, endToEndMetrics, true)
	check("per_layer", bf.PerLayer, perLayerMetrics, false)
	for _, p := range printedOnlyMetrics {
		for _, m := range append(bf.EndToEnd, bf.PerLayer...) {
			if m.Name == p.Name {
				t.Errorf("%s is printed only in the harness and listed in BENCHMARK.json", p.Name)
			}
		}
	}

	largest := 0.0
	for _, m := range bf.EndToEnd {
		largest = max(largest, m.Bound)
	}
	for _, m := range bf.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != largest) {
			t.Errorf("setup_s must be in s, better lower, with the largest bound: %+v", m)
		}
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d", bf.RunSeconds)
	}
}

func sameNames(t *testing.T, kind string, listed, have []string, ok *regexp.Regexp) {
	t.Helper()
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			if m[x] {
				t.Errorf("%s: %s is listed twice", kind, x)
			}
			if !ok.MatchString(x) {
				t.Errorf("%s: name %q is not one the driver accepts", kind, x)
			}
			m[x] = true
		}
		return m
	}
	l, h := in(listed), in(have)
	for x := range l {
		if !h[x] {
			t.Errorf("%s: BENCHMARK.json lists %s, the harness does not print it", kind, x)
		}
	}
	for x := range h {
		if !l[x] {
			t.Errorf("%s: the harness prints %s, BENCHMARK.json does not list it", kind, x)
		}
	}
}

// smokeSizes is every workload at a size that runs in a second or two, on
// a model that trains in a fraction of one.
var smokeSizes = sizes{
	demo:         advisor.DemoConfig{Seed: 1, Total: 120, Epochs: 1},
	uniqueInputs: 900,
	uniqueWarm:   20,
	hotLoops:     32,
	hotWarm:      1,
	treeRecords:  12,
	coldTrees:    4,
	warmTrees:    2,
	scanWarm:     1,
	replayInputs: 48,
}

// TestSmoke runs every workload for one second untraced and for a shorter
// time traced, and requires the checks to pass, no op to fail, and every metric
// the harness declares to be in the result.
func TestSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			c := config{seed: 5, seconds: 1, trace: trace, sz: smokeSizes, outDir: t.TempDir(), log: io.Discard}
			if trace {
				c.seconds = 0.6 // the replay comes on top
			}
			res, err := run(w, c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d notes=%q",
					w.name, trace, res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			defs := endToEndMetrics
			if trace {
				defs = perLayerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result, %d declared", w.name, trace, len(res.Metrics), len(defs))
			}
			present := func(defs []metricDef, got map[string]metricValue) {
				for _, d := range defs {
					v, ok := got[d.Name]
					if !ok || v.Unit != d.Unit || v.Value != v.Value {
						t.Errorf("%s trace=%v: metric %s is %+v (present %v)", w.name, trace, d.Name, v, ok)
					}
				}
			}
			present(defs, res.Metrics)
			if !trace {
				present(printedOnlyMetrics, res.PrintedOnly)
			}
			if trace && res.TraceFile == "" {
				t.Errorf("%s: no span file", w.name)
			}
		}
	}
	// About 15 s on a quiet host. Not asserted: the host's neighbours
	// decide it as much as the code does.
	t.Logf("smoke took %v", time.Since(start))
}

// TestQuartilesMatchPython pins quartiles to what Python's
// statistics.quantiles(values, n=4) returns for the same values.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{7, 1, 3, 10, 4, 8, 2, 9, 5, 6})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}
