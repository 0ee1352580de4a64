package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := newHistogram(nil)
	if got := h.Quantile(0.99); got != 0 {
		t.Fatalf("empty Quantile = %v, want 0", got)
	}
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: count=%d sum=%v max=%v", h.Count(), h.Sum(), h.Max())
	}
}

// TestHistogramBucketBoundary pins the Prometheus `le` contract: a value
// exactly on a bucket's upper bound belongs to that bucket, and the
// highest quantile of boundary-valued observations is reported exactly
// (interpolation reaches the bound, the max clamp keeps it there).
func TestHistogramBucketBoundary(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(2.0)
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("boundary value 2.0 landed outside the le=2 bucket: counts=%v",
			[]uint64{h.counts[0].Load(), h.counts[1].Load(), h.counts[2].Load(), h.counts[3].Load()})
	}
	if got := h.Quantile(1); got != 2.0 {
		t.Fatalf("Quantile(1) = %v, want exactly 2.0", got)
	}
	h2 := newHistogram([]float64{1, 2, 4})
	h2.Observe(1.0)
	if got := h2.counts[0].Load(); got != 1 {
		t.Fatalf("boundary value 1.0 landed outside the le=1 bucket")
	}
	if got := h2.Quantile(0.5); got != 1.0 {
		t.Fatalf("single-observation Quantile(0.5) = %v, want 1.0 (clamped to max)", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4, 8})
	// 10 observations in (2,4]: the median interpolates inside that bucket.
	for i := 0; i < 10; i++ {
		h.Observe(3.0)
	}
	got := h.Quantile(0.5)
	if got <= 2 || got > 3 {
		t.Fatalf("Quantile(0.5) = %v, want in (2, 3] (interpolated, clamped to max 3)", got)
	}
	if mx := h.Max(); mx != 3.0 {
		t.Fatalf("Max = %v, want 3.0", mx)
	}
	// p99 of the same data cannot exceed the observed max.
	if p99 := h.Quantile(0.99); p99 != 3.0 {
		t.Fatalf("Quantile(0.99) = %v, want clamped to max 3.0", p99)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{1})
	h.Observe(50)
	if got := h.Quantile(0.99); got != 50.0 {
		t.Fatalf("overflow-bucket quantile = %v, want the observed max 50", got)
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines; run
// under -race in CI, and the totals must balance exactly.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(nil)
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(float64(g*per+i) * 1e-6)
			}
		}(g)
	}
	wg.Wait()
	if got := h.Count(); got != goroutines*per {
		t.Fatalf("Count = %d, want %d", got, goroutines*per)
	}
	var inBuckets uint64
	for i := range h.counts {
		inBuckets += h.counts[i].Load()
	}
	if inBuckets != goroutines*per {
		t.Fatalf("bucket counts sum to %d, want %d", inBuckets, goroutines*per)
	}
	wantMax := float64(goroutines*per-1) * 1e-6
	if math.Abs(h.Max()-wantMax) > 1e-12 {
		t.Fatalf("Max = %v, want %v", h.Max(), wantMax)
	}
}

func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("pf_test_total", "A test counter.", Labels{"path": "/predict"})
	c.Add(3)
	reg.GaugeFunc("pf_test_depth", "A test gauge.", nil, func() float64 { return 7 })
	h := reg.Histogram("pf_test_seconds", "A test histogram.", nil, []float64{1, 2})
	h.Observe(1.5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE pf_test_total counter",
		`pf_test_total{path="/predict"} 3`,
		"# TYPE pf_test_depth gauge",
		"pf_test_depth 7",
		"# TYPE pf_test_seconds histogram",
		`pf_test_seconds_bucket{le="1"} 0`,
		`pf_test_seconds_bucket{le="2"} 1`,
		`pf_test_seconds_bucket{le="+Inf"} 1`,
		"pf_test_seconds_sum 1.5",
		"pf_test_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSON pins the /statz rendering: one key per series, named as
// /metrics names it (labels escaped the same way), a number for a counter
// or gauge, and a summary in seconds for a histogram — zeros when it has
// seen nothing.
func TestWriteJSON(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("pf_test_total", "c", Labels{"path": "/predict", "kind": `a"b`}).Add(3)
	reg.GaugeFunc("pf_test_depth", "g", nil, func() float64 { return 7.5 })
	reg.Histogram("pf_test_seconds", "h", Labels{"stage": "infer"}, []float64{1, 2}).Observe(1.5)
	reg.Histogram("pf_test_seconds", "h", Labels{"stage": "idle"}, []float64{1, 2})

	var b strings.Builder
	if err := reg.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
		t.Fatalf("body %q: %v", b.String(), err)
	}
	summary := func(count, v float64) map[string]any {
		return map[string]any{"count": count, "sum": v, "p50": v, "p90": v, "p99": v, "max": v}
	}
	want := map[string]any{
		`pf_test_total{kind="a\"b",path="/predict"}`: 3.0,
		"pf_test_depth":                  7.5,
		`pf_test_seconds{stage="infer"}`: summary(1, 1.5),
		`pf_test_seconds{stage="idle"}`:  summary(0, 0),
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("WriteJSON = %v\nwant %v", got, want)
	}
}

// TestWriteJSONConcurrentScrape scrapes while other goroutines register
// and update series; run under -race in CI. Every scrape decodes, and the
// last one reconciles: each label set's counter equals its histogram's
// count, because every writer step moves both.
func TestWriteJSONConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	scrape := func() map[string]any {
		var b strings.Builder
		if err := reg.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal([]byte(b.String()), &got); err != nil {
			t.Fatalf("body %q: %v", b.String(), err)
		}
		return got
	}
	const writers, steps = 4, 2000
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < steps; i++ {
				l := Labels{"g": strconv.Itoa(g), "i": strconv.Itoa(i % 8)}
				reg.Counter("pf_c_total", "c", l).Inc()
				reg.Histogram("pf_h_seconds", "h", l, nil).Observe(float64(i) * 1e-4)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for scraping := true; scraping; {
		select {
		case <-done:
			scraping = false
		default:
		}
		scrape()
	}

	got := scrape()
	var total float64
	for key, v := range got {
		labels, ok := strings.CutPrefix(key, "pf_c_total")
		if !ok {
			continue
		}
		h, ok := got["pf_h_seconds"+labels].(map[string]any)
		if !ok || h["count"] != v {
			t.Errorf("%s = %v, histogram %v", key, v, got["pf_h_seconds"+labels])
		}
		total += v.(float64)
	}
	if len(got) != 2*writers*8 || total != writers*steps {
		t.Fatalf("%d series counting %v steps, want %d counting %d", len(got), total, 2*writers*8, writers*steps)
	}
}

// TestRegistryGetOrCreate pins the sharing contract: the same (name,
// labels) from two call sites is one series.
func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	a := reg.Histogram("pf_dur_seconds", "h", Labels{"path": "/x"}, nil)
	b := reg.Histogram("pf_dur_seconds", "h", Labels{"path": "/x"}, nil)
	if a != b {
		t.Fatal("same (name, labels) returned distinct histograms")
	}
	if c := reg.Histogram("pf_dur_seconds", "h", Labels{"path": "/y"}, nil); c == a {
		t.Fatal("different labels returned the same histogram")
	}
}

// A lookup of a series that exists builds nothing: it costs the label
// string (and its key slice), not a histogram and its buckets.
func TestRegistryLookupDoesNotConstruct(t *testing.T) {
	reg := NewRegistry()
	labels := Labels{"path": "/x"}
	reg.Histogram("pf_dur_seconds", "h", labels, nil)
	reg.Counter("pf_total", "c", labels)
	n := testing.AllocsPerRun(100, func() {
		reg.Histogram("pf_dur_seconds", "h", labels, nil)
		reg.Counter("pf_total", "c", labels)
	})
	t.Logf("%.0f allocations per histogram and counter lookup", n)
	// Two label renderings: a key slice, sort.Strings' boxing of it, and
	// the string, each. Constructing the pair would add four: a histogram,
	// its bounds, its buckets, and a counter.
	if n > 6 {
		t.Fatalf("a lookup of two existing series allocates %.0f times, want <= 6", n)
	}
}
