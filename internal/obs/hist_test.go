package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
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
	h := NewHistogram([]float64{1, 2, 4})
	h.Observe(2.0)
	if got := h.counts[1].Load(); got != 1 {
		t.Fatalf("boundary value 2.0 landed outside the le=2 bucket: counts=%v",
			[]uint64{h.counts[0].Load(), h.counts[1].Load(), h.counts[2].Load(), h.counts[3].Load()})
	}
	if got := h.Quantile(1); got != 2.0 {
		t.Fatalf("Quantile(1) = %v, want exactly 2.0", got)
	}
	h2 := NewHistogram([]float64{1, 2, 4})
	h2.Observe(1.0)
	if got := h2.counts[0].Load(); got != 1 {
		t.Fatalf("boundary value 1.0 landed outside the le=1 bucket")
	}
	if got := h2.Quantile(0.5); got != 1.0 {
		t.Fatalf("single-observation Quantile(0.5) = %v, want 1.0 (clamped to max)", got)
	}
}

func TestHistogramQuantileInterpolation(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
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
	h := NewHistogram([]float64{1})
	h.Observe(50)
	if got := h.Quantile(0.99); got != 50.0 {
		t.Fatalf("overflow-bucket quantile = %v, want the observed max 50", got)
	}
}

// TestHistogramConcurrentObserve hammers Observe from many goroutines; run
// under -race in CI, and the totals must balance exactly.
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
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
// string (and its key slice), not a histogram and its buckets — /statz
// looks three histograms up on every poll.
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
