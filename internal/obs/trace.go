package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Wire headers of the tracing and deadline contracts. A router mints a
// trace ID (or accepts the client's via TraceHeader) and echoes it on the
// response; fan-out forwards carry both headers to replicas, so one
// request's spans can be merged across the tier. DeadlineHeader carries
// the REMAINING client budget in integer milliseconds — an absolute
// wall-clock deadline would need synchronized clocks, a budget does not.
const (
	TraceHeader    = "X-PF-Trace"
	DeadlineHeader = "X-PF-Deadline-Ms"
)

// MaxSpans caps one trace's span count; later spans are counted as
// dropped rather than growing without bound (a scan over a huge tree
// records per-file parse spans).
const MaxSpans = 256

// Span is one timed region inside a request: a name plus its offset from
// the trace start and its duration.
type Span struct {
	Name  string
	Start time.Duration
	Dur   time.Duration
}

// Stage is one named sub-timing a lower layer reports upward without
// holding the trace itself — the batcher's run functions return the
// advisor's infer/corroborate splits this way.
type Stage struct {
	Name string
	Dur  time.Duration
}

// Trace is one request's span recorder. All methods are safe for
// concurrent use and nil-safe: a nil *Trace swallows every call, so
// instrumented code never branches on "is tracing on".
type Trace struct {
	ID string
	t0 time.Time

	mu      sync.Mutex
	spans   []Span
	dropped int
}

// NewTrace builds a trace, minting a random ID when id is empty.
func NewTrace(id string) *Trace {
	if id == "" {
		id = NewID()
	}
	return &Trace{ID: id, t0: time.Now()}
}

// NewID mints a 16-hex-digit random trace ID.
func NewID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed ID keeps the
		// request path alive.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Add records a span that began at start and ran for d.
func (t *Trace) Add(name string, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= MaxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, Span{Name: name, Start: start.Sub(t.t0), Dur: d})
}

// Observe records a span of duration d ending now.
func (t *Trace) Observe(name string, d time.Duration) {
	if t == nil {
		return
	}
	t.Add(name, time.Now().Add(-d), d)
}

// Start opens a span and returns the closure that ends it:
//
//	defer tr.Start("route")()
func (t *Trace) Start(name string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Now()
	return func() { t.Add(name, start, time.Since(start)) }
}

// Spans snapshots the recorded spans in recording order.
func (t *Trace) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// Dropped reports how many spans the cap discarded.
func (t *Trace) Dropped() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// WireSpan is one span on the wire, offsets and durations in microseconds.
type WireSpan struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
}

// Wire is a trace's JSON form: attached to /predict and /suggest response
// bodies (only when the request was traced) and merged router-side so a
// tier-routed request reports replica spans next to its own.
type Wire struct {
	ID      string     `json:"id"`
	Spans   []WireSpan `json:"spans"`
	Dropped int        `json:"dropped,omitempty"`
}

// Wire renders the trace for a response body; nil for a nil trace.
func (t *Trace) Wire() *Wire {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := &Wire{ID: t.ID, Dropped: t.dropped, Spans: make([]WireSpan, len(t.spans))}
	for i, s := range t.spans {
		w.Spans[i] = WireSpan{Name: s.Name, StartUs: s.Start.Microseconds(), DurUs: s.Dur.Microseconds()}
	}
	return w
}

// Merge appends a remote trace's spans (offsets stay relative to the
// remote process' own start — span durations, not clock sync, are the
// contract).
func (t *Trace) Merge(w *Wire) {
	if t == nil || w == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range w.Spans {
		if len(t.spans) >= MaxSpans {
			t.dropped++
			continue
		}
		t.spans = append(t.spans, Span{
			Name:  s.Name,
			Start: time.Duration(s.StartUs) * time.Microsecond,
			Dur:   time.Duration(s.DurUs) * time.Microsecond,
		})
	}
	t.dropped += w.Dropped
}

// StageTotal aggregates one span name's occurrences.
type StageTotal struct {
	Name  string
	Count int
	Total time.Duration
}

// Summary aggregates spans by name, ordered by name — the `pragformer
// scan -v` stage table and the per-request log line.
func (t *Trace) Summary() []StageTotal {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	byName := map[string]*StageTotal{}
	var order []string
	for _, s := range t.spans {
		st := byName[s.Name]
		if st == nil {
			st = &StageTotal{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.Count++
		st.Total += s.Dur
	}
	t.mu.Unlock()
	sort.Strings(order)
	out := make([]StageTotal, len(order))
	for i, name := range order {
		out[i] = *byName[name]
	}
	return out
}

// ctxKey keys the request trace in a context.
type ctxKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, t)
}

// TraceFrom returns the context's trace, nil when the request is not
// traced — and every Trace method accepts the nil.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(ctxKey{}).(*Trace)
	return t
}
