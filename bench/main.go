// Command bench is the repository's one benchmark: four workloads driven
// by one harness that builds the whole system in one process through
// public functions, measures it end to end, checks its outputs, and — in a
// separate traced run — attributes the time to layers. README.md beside
// this file says what each workload and metric is for.
//
//	bash bench/run.sh --workload scan_warm --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all
//	bash bench/run.sh --aa 5
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricDef names one metric the harness prints. BENCHMARK.json lists the
// same names and units, and holds the bounds; a test keeps the two equal.
type metricDef struct {
	Name, Unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"allocs_per_item", "count"},
	{"alloc_kb_per_item", "KB"},
	{"live_heap_mb", "MB"},
}

// printedOnlyMetrics are measured and printed by every untraced run but
// carry no bound, because on a shared host they do not repeat within a
// tenth (AA.md has their spreads). A claim about one of them rests on
// alternating pairs of runs, not on a bound.
var printedOnlyMetrics = []metricDef{
	{"items_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"cpu_ms_per_item", "ms"},
}

var perLayerMetrics = []metricDef{
	{"tokenize.extract_us", "us"}, {"tokenize.encode_us", "us"}, {"tokenize.tokens_per_snippet", "count"},
	{"core.predict_batch1_us", "us"}, {"core.predict_batch16_us", "us"}, {"core.predict_allocs_per_call", "count"},
	{"quant.predict_batch1_us", "us"}, {"quant.predict_batch16_us", "us"}, {"quant.quantize_ms", "ms"},
	{"cparse.parse_file_us", "us"}, {"cparse.parse_snippet_us", "us"}, {"cast.extract_loops_us", "us"},
	{"cast.print_us", "us"}, {"scan.hash_snippet_us", "us"},
	{"dep.analyze_us", "us"}, {"dep.refuted_ratio", "ratio"}, {"s2s.compile_each_us", "us"}, {"lime.explain_ms", "ms"},
	{"advisor.infer_us_per_item", "us"}, {"advisor.infer_b1_us_per_item", "us"},
	{"advisor.corroborate_us_per_item", "us"}, {"advisor.positive_ratio", "ratio"}, {"advisor.disagree_ratio", "ratio"},
	{"scan.pipeline_ms", "ms"}, {"scan.report_json_ms", "ms"}, {"scan.report_sarif_ms", "ms"},
	{"scan.store_get_ns", "ns"}, {"scan.store_put_ns", "ns"}, {"scan.filestore_open_ms", "ms"},
	{"scan.filestore_flush_ms", "ms"}, {"scan.dedupe_ratio", "ratio"}, {"scan.skip_ratio", "ratio"},
	{"serve.http_suggest_us", "us"}, {"serve.engine_suggest_us", "us"}, {"serve.http_predict_us", "us"},
	{"serve.queue_wait_us", "us"}, {"serve.batch_compute_us", "us"}, {"serve.avg_batch", "count"},
	{"serve.cache_hit_ratio", "ratio"}, {"serve.sheds", "count"},
	{"tier.router_overhead_us", "us"}, {"tier.store_hit_ratio", "ratio"}, {"tier.forwards_per_request", "ratio"},
	{"tier.sheds", "count"}, {"tier.forward_errors", "count"},
	{"obs.trace_overhead_ratio", "ratio"}, {"obs.span_coverage_ratio", "ratio"}, {"obs.metrics_scrape_ms", "ms"},
	{"train.demo_fit_s", "s"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	sz      sizes
	outDir  string
	log     io.Writer
}

const (
	// setups is how many times an untraced run sets the program up; the
	// median is setup_s, so one slow set-up does not decide it.
	setups = 3
	// segments splits the measured phase. Rates and CPU are per segment
	// and the run reports the median segment, so a burst from a neighbour
	// spoils one segment and not the run. No segment is dropped.
	segments = 5
	// tracedSegments alternate untraced and traced in a traced run.
	tracedSegments = 6
)

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output, the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is everything one run found.
type result struct {
	resultLine
	Workload    string
	Fingerprint fingerprint
	GenS        float64
	SetupS      []float64
	Segments    []segment
	Latencies   int
	// PrintedOnly holds printedOnlyMetrics: in the output, not in the
	// result line.
	PrintedOnly map[string]metricValue
	Notes       []string
	TraceFile   string
	Layers      []layerTotal
}

func run(w workload, c config) (*result, error) {
	// Two OS threads run Go code whatever the host has, so that demand is
	// the same everywhere.
	runtime.GOMAXPROCS(2)
	res := &result{Workload: w.name, Fingerprint: newFingerprint(c.seed)}
	tmp := filepath.Join(c.outDir, fmt.Sprintf("tmp-%s-%d", w.name, os.Getpid()))
	defer os.RemoveAll(tmp)

	t0 := time.Now()
	in, err := w.gen(c.seed, c.sz, tmp)
	if err != nil {
		return nil, fmt.Errorf("input generation: %w", err)
	}
	res.GenS = time.Since(t0).Seconds()
	heapBefore := liveHeapMB() // the harness's own inputs

	n := setups
	if c.trace {
		n = 1
	}
	var sub *subject
	for i := 0; i < n; i++ {
		if sub != nil {
			sub.close()
		}
		t0 := time.Now()
		if sub, err = w.setUp(c.sz, in); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.SetupS = append(res.SetupS, time.Since(t0).Seconds())
	}
	defer sub.close()
	heap := liveHeapMB() - heapBefore

	var rec *recorder
	var before fleetCounters
	nSeg := segments
	if c.trace {
		rec, nSeg = newRecorder(), tracedSegments
		if sub.fleet != nil {
			if before, _, err = sub.fleet.counters(); err != nil {
				return nil, err
			}
		}
	}
	segLen := time.Duration(c.seconds / float64(nSeg) * float64(time.Second))
	var lat []float64 // pooled over the segments
	ms0 := memStats()
	for i := 0; i < nSeg; i++ {
		var segRec *recorder
		if c.trace && i%2 == 1 {
			segRec = rec
		}
		seg, l, err := runSegment(w.conns, segLen, sub.op, segRec)
		res.Segments = append(res.Segments, seg)
		lat = append(lat, l...)
		res.Attempted += seg.Ops
		res.Failed += seg.Failed
		if err == errExhausted {
			res.Notes = append(res.Notes, fmt.Sprintf("inputs ran out in segment %d; rates are over the time measured", i))
			break
		}
		if err != nil {
			res.Notes = append(res.Notes, "first failed op: "+err.Error())
		}
	}
	ms1 := memStats()
	flagBusy(res.Segments)

	res.Correct = res.Failed == 0
	if err := sub.check(); err != nil {
		res.Correct = false
		res.Notes = append(res.Notes, "check failed: "+err.Error())
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("no op completed")
	}

	if c.trace {
		if err := res.traced(w, c, in, sub, rec, before, tmp); err != nil {
			return nil, err
		}
		return res, nil
	}

	items := 0
	var rates, cpus []float64
	for _, s := range res.Segments {
		if s.Items > 0 {
			items += s.Items
			rates = append(rates, s.itemsPerS())
			cpus = append(cpus, s.cpuMsPerItem())
		}
	}
	if items == 0 {
		return nil, fmt.Errorf("no item completed")
	}
	sort.Float64s(lat)
	res.Latencies = len(lat)
	res.Metrics = metricValues(endToEndMetrics, map[string]float64{
		"setup_s":           median(res.SetupS),
		"allocs_per_item":   float64(ms1.Mallocs-ms0.Mallocs) / float64(items),
		"alloc_kb_per_item": float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1024 / float64(items),
		"live_heap_mb":      heap,
	})
	res.PrintedOnly = metricValues(printedOnlyMetrics, map[string]float64{
		"items_per_s":     median(rates),
		"latency_p50_ms":  quantile(lat, 0.50),
		"latency_p95_ms":  quantile(lat, 0.95),
		"latency_p99_ms":  quantile(lat, 0.99),
		"cpu_ms_per_item": median(cpus),
	})
	return res, nil
}

// traced finishes a traced run: the counter metrics from the load, the
// layer replay, the span file.
func (res *result) traced(w workload, c config, in *inputs, sub *subject, rec *recorder, before fleetCounters, tmp string) error {
	var plain, traced []float64
	for _, s := range res.Segments {
		if s.Items == 0 {
			continue
		}
		if s.Traced {
			traced = append(traced, s.itemsPerS())
		} else {
			plain = append(plain, s.itemsPerS())
		}
	}
	// The replay comes first: its routed pass gives the serve.* and tier.*
	// counter metrics of a workload that runs no fleet, and a tier workload
	// overwrites them below with the movement over its load.
	m, err := replay(sub.models, in.loops[:min(len(in.loops), c.sz.replayInputs)], in.recs, tmp, rec)
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	if sub.fleet != nil {
		after, scrape, err := sub.fleet.counters()
		if err != nil {
			return err
		}
		for k, v := range before.layerMetrics(after) {
			m[k] = v
		}
		m["obs.metrics_scrape_ms"] = ms(scrape)
	}
	res.Layers = rec.totals()
	m["obs.span_coverage_ratio"] = coverage(res.Layers, "op")
	m["train.demo_fit_s"] = sub.fitS
	m["obs.trace_overhead_ratio"] = 0
	if len(plain) > 0 && len(traced) > 0 {
		m["obs.trace_overhead_ratio"] = 1 - median(traced)/median(plain)
	}
	res.Metrics = metricValues(perLayerMetrics, m)
	res.TraceFile, err = rec.write(c.outDir, w.name, res.Layers)
	return err
}

// metricValues pairs the declared metrics with their values and units.
func metricValues(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// printedOnlyPrefix starts the output line that carries the printed-only
// metrics as JSON, for the A/A driver to read.
const printedOnlyPrefix = "printed-only "

// print writes the run for a reader, then the result line for the driver.
func (res *result) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", res.Workload, res.Fingerprint)
	fmt.Fprintf(w, "input generation %.2f s (outside every metric); set-ups %.3f s\n", res.GenS, res.SetupS)
	fmt.Fprintln(w, "segment  traced  wall_s  ops  items  failed  items/s  cpu_ms/item  runq_delay_ms  steal_ticks  flag")
	for i, s := range res.Segments {
		flag := ""
		if s.Flagged {
			flag = "busy-host"
		}
		fmt.Fprintf(w, "%7d  %6v  %6.3f  %3d  %5d  %6d  %7.1f  %11.4f  %13.1f  %11.0f  %s\n",
			i, s.Traced, s.WallS, s.Ops, s.Items, s.Failed, s.itemsPerS(), s.cpuMsPerItem(), s.RunqDelayMs, s.StealTicks, flag)
	}
	for _, d := range defs {
		fmt.Fprintf(w, "%-34s %14.4f %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	if res.PrintedOnly != nil {
		for _, d := range printedOnlyMetrics {
			fmt.Fprintf(w, "%-34s %14.4f %s (printed only)\n", d.Name, res.PrintedOnly[d.Name].Value, d.Unit)
		}
		fmt.Fprintf(w, "latency samples %d, %d beyond p95\n", res.Latencies, res.Latencies/20)
		line, _ := json.Marshal(res.PrintedOnly) // plain numbers and strings
		fmt.Fprintf(w, "%s%s\n", printedOnlyPrefix, line)
	}
	if len(res.Layers) > 0 {
		fmt.Fprintf(w, "spans by self time (written to %s):\n%-34s %8s %12s %12s\n", res.TraceFile, "name", "count", "total_ms", "self_ms")
		for _, l := range res.Layers {
			fmt.Fprintf(w, "%-34s %8d %12.2f %12.2f\n", l.Name, l.Count, l.TotalMs, l.SelfMs)
		}
	}
	fmt.Fprintf(w, "ops_attempted %d  ops_failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, n := range res.Notes {
		fmt.Fprintln(w, "note:", n)
	}
	line, _ := json.Marshal(res.resultLine)
	fmt.Fprintf(w, "%s\n", line)
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload name, or all")
		seed    = flag.Int64("seed", 1, "seed of input generation; the model does not depend on it")
		seconds = flag.Float64("seconds", 15, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: traced run with the layer replay, printing per-layer metrics; 0: end-to-end metrics")
		aa      = flag.Int("aa", 0, "A/A mode: this many runs per side and workload, each in its own process")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*aa, *name, *seed, *seconds))
	}
	c := config{seed: *seed, seconds: *seconds, trace: *trace != 0, sz: fullSizes,
		outDir: filepath.Join("bench", "out"), log: os.Stdout}
	todo := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		todo = []workload{w}
	}
	defs := endToEndMetrics
	if c.trace {
		defs = perLayerMetrics
	}
	for _, w := range todo {
		res, err := run(w, c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		res.print(c.log, defs)
	}
}
