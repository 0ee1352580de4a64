package obs

import (
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// DefBuckets is the default latency bucket scheme, in seconds: 100µs to
// 10s, roughly logarithmic — wide enough for a cache hit and a cold
// demo-model suggest in the same histogram.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket latency histogram: atomic per-bucket counts
// plus total count, sum, and an exact observed max. Observe allocates
// nothing; quantiles are estimated by linear interpolation inside the
// owning bucket and clamped to the observed max, so a histogram holding a
// single observation reports it exactly.
type Histogram struct {
	upper  []float64 // ascending bucket upper bounds; an implicit +Inf follows
	counts []atomic.Uint64
	count  atomic.Uint64
	sumNs  atomic.Int64  // sum of observations, in nanoseconds
	maxBit atomic.Uint64 // float64 bits of the largest observation
}

func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	h := &Histogram{
		upper:  append([]float64(nil), buckets...),
		counts: make([]atomic.Uint64, len(buckets)+1),
	}
	return h
}

// Observe records one value in seconds. Bucket membership is v <= upper
// bound, matching Prometheus' cumulative `le` semantics exactly at the
// boundaries.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sumNs.Add(int64(v * 1e9))
	for {
		old := h.maxBit.Load()
		if math.Float64frombits(old) >= v && old != 0 {
			return
		}
		if h.maxBit.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// ObserveSince records the elapsed time since start.
func (h *Histogram) ObserveSince(start time.Time) { h.Observe(time.Since(start).Seconds()) }

// Count is the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum is the sum of observed values in seconds.
func (h *Histogram) Sum() float64 { return float64(h.sumNs.Load()) / 1e9 }

// Max is the largest observed value (0 when empty).
func (h *Histogram) Max() float64 { return math.Float64frombits(h.maxBit.Load()) }

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the owning bucket, clamped to the observed max so the estimate
// never exceeds reality. An empty histogram reports 0.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	lower := 0.0
	for i, ub := range h.upper {
		c := h.counts[i].Load()
		cum += c
		if float64(cum) >= rank {
			frac := (rank - float64(cum-c)) / float64(c)
			v := lower + frac*(ub-lower)
			if mx := h.Max(); mx > 0 && v > mx {
				v = mx
			}
			return v
		}
		lower = ub
	}
	// The quantile lands in the +Inf overflow bucket: the observed max is
	// the only honest upper estimate.
	return h.Max()
}

// expose renders the Prometheus histogram sample lines: cumulative
// `_bucket{le=...}` counts, `_sum`, and `_count`.
func (h *Histogram) expose(w *strings.Builder, name, labels string) {
	var cum uint64
	for i, ub := range h.upper {
		cum += h.counts[i].Load()
		sampleLine(w, name, joinLabels(labels, `le="`+formatFloat(ub)+`"`), "_bucket", strconv.FormatUint(cum, 10))
	}
	cum += h.counts[len(h.upper)].Load()
	sampleLine(w, name, joinLabels(labels, `le="+Inf"`), "_bucket", strconv.FormatUint(cum, 10))
	sampleLine(w, name, labels, "_sum", formatFloat(h.Sum()))
	sampleLine(w, name, labels, "_count", strconv.FormatUint(h.count.Load(), 10))
}

// histSummary is a histogram's /statz value, in seconds.
type histSummary struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
}

func (h *Histogram) value() any {
	return histSummary{Count: h.Count(), Sum: h.Sum(),
		P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99), Max: h.Max()}
}

func joinLabels(a, b string) string {
	if a == "" {
		return b
	}
	return a + "," + b
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
