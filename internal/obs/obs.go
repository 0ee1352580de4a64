// Package obs is the serving stack's dependency-free runtime telemetry
// layer: a metrics registry (atomic counters, gauges, fixed-bucket latency
// histograms with p50/p90/p99/max and zero per-request allocation) with
// Prometheus text and JSON exposition, request-scoped tracing (a trace ID
// minted at the edge or accepted from the X-PF-Trace header, lightweight
// spans recorded along every hop), and deadline propagation helpers
// (X-PF-Deadline-Ms carried router → replica → batcher so expired work is
// shed before it wastes a forward).
//
// The package is intentionally inert by default: a nil *Trace swallows
// every span call, an unobserved Histogram costs one slice, and none of
// the deterministic math/kernel packages (nn, quant, tensor, dep) may
// import it — cmd/pflint enforces that boundary.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels is one metric series' label set. Label sets are rendered once at
// registration (sorted by key), so hot-path updates never format strings.
type Labels map[string]string

// Counter is a monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// metric is one registered series' rendering in both formats.
type metric interface {
	// expose writes the series' sample lines. name is the family name,
	// labels the canonical inner label string ("" for none).
	expose(w *strings.Builder, name, labels string)
	// value is the series' GET /statz JSON value.
	value() any
}

func sampleLine(w *strings.Builder, name, labels, suffix, value string) {
	w.WriteString(name)
	w.WriteString(suffix)
	if labels != "" {
		w.WriteByte('{')
		w.WriteString(labels)
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(value)
	w.WriteByte('\n')
}

func (c *Counter) expose(w *strings.Builder, name, labels string) {
	sampleLine(w, name, labels, "", fmt.Sprintf("%d", c.Value()))
}

func (c *Counter) value() any { return c.Value() }

// gaugeFunc exposes a point-in-time value (queue depth, in-flight count).
type gaugeFunc struct{ fn func() float64 }

func (g gaugeFunc) expose(w *strings.Builder, name, labels string) {
	sampleLine(w, name, labels, "", formatFloat(g.fn()))
}

func (g gaugeFunc) value() any { return g.fn() }

// family is one metric name: its metadata plus every label combination
// registered under it.
type family struct {
	name, help, typ string

	mu     sync.Mutex
	order  []string // label strings in registration order
	series map[string]metric
}

// Registry holds metric families and renders them as Prometheus text
// (GET /metrics) and as JSON (GET /statz). All registration methods are
// get-or-create: asking for the same (name, labels) twice returns the same
// series, so independent layers (HTTP middleware, tests) can share one
// histogram without coordination.
type Registry struct {
	mu    sync.Mutex
	fams  map[string]*family
	order []*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

func (r *Registry) fam(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.fams[name] = f
		r.order = append(r.order, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// add returns the series registered under labels, building it with mk
// only when there is none yet (get-or-create): a lookup of an existing
// series costs its label string and nothing else.
func (f *family) add(labels Labels, mk func() metric) metric {
	ls := formatLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if existing, ok := f.series[ls]; ok {
		return existing
	}
	m := mk()
	f.series[ls] = m
	f.order = append(f.order, ls)
	return m
}

// Counter returns the counter registered under (name, labels), creating it
// on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	m := r.fam(name, help, "counter").add(labels, func() metric { return &Counter{} })
	c, ok := m.(*Counter)
	if !ok {
		panic(fmt.Sprintf("obs: series %q %v is not a Counter", name, labels))
	}
	return c
}

// GaugeFunc exposes an externally computed point-in-time value.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.fam(name, help, "gauge").add(labels, func() metric { return gaugeFunc{fn: fn} })
}

// Histogram returns the histogram registered under (name, labels),
// creating it with the given bucket upper bounds on first use (nil =
// DefBuckets).
func (r *Registry) Histogram(name, help string, labels Labels, buckets []float64) *Histogram {
	m := r.fam(name, help, "histogram").add(labels, func() metric { return newHistogram(buckets) })
	h, ok := m.(*Histogram)
	if !ok {
		panic(fmt.Sprintf("obs: series %q %v is not a Histogram", name, labels))
	}
	return h
}

// formatLabels renders a label set to its canonical inner form
// (`k1="v1",k2="v2"`, keys sorted), once, at registration time.
func formatLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
