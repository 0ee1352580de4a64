package obs

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Add("x", time.Now(), time.Millisecond)
	tr.Observe("y", time.Millisecond)
	tr.Start("z")()
	tr.Merge(&Wire{Spans: []WireSpan{{Name: "a"}}})
	if tr.Spans() != nil || tr.Wire() != nil || tr.Summary() != nil || tr.Dropped() != 0 {
		t.Fatal("nil trace leaked state")
	}
}

func TestTraceSpansAndSummary(t *testing.T) {
	tr := NewTrace("abc")
	end := tr.Start("route")
	end()
	tr.Observe("store.get", 2*time.Millisecond)
	tr.Observe("store.get", 3*time.Millisecond)
	spans := tr.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	sum := tr.Summary()
	if len(sum) != 2 || sum[0].Name != "route" || sum[1].Name != "store.get" {
		t.Fatalf("summary = %+v", sum)
	}
	if sum[1].Count != 2 || sum[1].Total != 5*time.Millisecond {
		t.Fatalf("store.get summary = %+v, want count 2 total 5ms", sum[1])
	}
}

func TestTraceSpanCap(t *testing.T) {
	tr := NewTrace("cap")
	for i := 0; i < MaxSpans+10; i++ {
		tr.Observe("s", time.Microsecond)
	}
	if got := len(tr.Spans()); got != MaxSpans {
		t.Fatalf("got %d spans, want cap %d", got, MaxSpans)
	}
	if tr.Dropped() != 10 {
		t.Fatalf("dropped = %d, want 10", tr.Dropped())
	}
}

func TestWireRoundTripAndMerge(t *testing.T) {
	remote := NewTrace("remote-id")
	remote.Observe("infer", 4*time.Millisecond)
	buf, err := json.Marshal(remote.Wire())
	if err != nil {
		t.Fatal(err)
	}
	var w Wire
	if err := json.Unmarshal(buf, &w); err != nil {
		t.Fatal(err)
	}
	local := NewTrace("local-id")
	local.Observe("forward", 6*time.Millisecond)
	local.Merge(&w)
	sum := local.Summary()
	if len(sum) != 2 || sum[0].Name != "forward" || sum[1].Name != "infer" {
		t.Fatalf("merged summary = %+v", sum)
	}
	if sum[1].Total != 4*time.Millisecond {
		t.Fatalf("merged infer total = %v, want 4ms", sum[1].Total)
	}
}

func TestMiddlewareTraceHeaderEcho(t *testing.T) {
	reg := NewRegistry()
	mw := NewMiddleware(reg, nil)
	var sawTrace *Trace
	h := mw.Wrap("/predict", func(w http.ResponseWriter, r *http.Request) {
		sawTrace = TraceFrom(r.Context())
		w.WriteHeader(http.StatusOK)
	})
	// Untraced request: no trace in ctx, no header echoed.
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/predict", nil))
	if sawTrace != nil || rec.Header().Get(TraceHeader) != "" {
		t.Fatal("untraced request grew a trace")
	}
	// Traced request: client ID accepted and echoed.
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Header.Set(TraceHeader, "client-id-1")
	rec = httptest.NewRecorder()
	h(rec, req)
	if sawTrace == nil || sawTrace.ID != "client-id-1" {
		t.Fatalf("trace = %+v, want ID client-id-1", sawTrace)
	}
	if got := rec.Header().Get(TraceHeader); got != "client-id-1" {
		t.Fatalf("response %s = %q, want echo", TraceHeader, got)
	}
	if RequestHistogram(reg, "/predict").Count() != 2 {
		t.Fatalf("request histogram count = %d, want 2", RequestHistogram(reg, "/predict").Count())
	}
}

func TestMiddlewareTraceAllMints(t *testing.T) {
	logBuf := &strings.Builder{}
	logger := slog.New(slog.NewTextHandler(logBuf, nil))
	mw := NewMiddleware(NewRegistry(), logger)
	h := mw.Wrap("/suggest", func(w http.ResponseWriter, r *http.Request) {
		TraceFrom(r.Context()).Observe("infer", time.Millisecond)
	})
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, "/suggest", nil))
	if rec.Header().Get(TraceHeader) == "" {
		t.Fatal("a logging middleware did not mint an ID")
	}
	if !strings.Contains(logBuf.String(), "infer") {
		t.Fatalf("log line missing stage summary: %s", logBuf.String())
	}
}

func TestMiddlewareDeadline(t *testing.T) {
	reg := NewRegistry()
	mw := NewMiddleware(reg, nil)
	ran := false
	var hadDeadline bool
	h := mw.Wrap("/predict", func(w http.ResponseWriter, r *http.Request) {
		ran = true
		_, hadDeadline = r.Context().Deadline()
	})
	// Expired budget: shed with 504 before the handler runs.
	req := httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Header.Set(DeadlineHeader, "0")
	rec := httptest.NewRecorder()
	h(rec, req)
	if ran {
		t.Fatal("handler ran despite an expired deadline")
	}
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", rec.Code)
	}
	body, _ := io.ReadAll(rec.Result().Body)
	if !strings.Contains(string(body), "deadline") {
		t.Fatalf("body = %s", body)
	}
	if got := reg.Counter("pf_deadline_exceeded_total", "", Labels{"path": "/predict"}).Value(); got != 1 {
		t.Fatalf("deadline counter = %d, want 1", got)
	}
	// Live budget: handler sees a context deadline.
	req = httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Header.Set(DeadlineHeader, "5000")
	h(httptest.NewRecorder(), req)
	if !ran || !hadDeadline {
		t.Fatalf("ran=%v hadDeadline=%v, want handler run under a deadline", ran, hadDeadline)
	}
	// Malformed header: 400.
	req = httptest.NewRequest(http.MethodPost, "/predict", nil)
	req.Header.Set(DeadlineHeader, "soon")
	rec = httptest.NewRecorder()
	h(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed deadline status = %d, want 400", rec.Code)
	}
}

func TestSetDeadlineHeader(t *testing.T) {
	h := http.Header{}
	SetDeadlineHeader(context.Background(), h)
	if h.Get(DeadlineHeader) != "" {
		t.Fatal("header set without a context deadline")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	SetDeadlineHeader(ctx, h)
	v := h.Get(DeadlineHeader)
	if v == "" || v == "0" {
		t.Fatalf("deadline header = %q, want a positive remaining budget", v)
	}
}

// The middleware reads both wire headers on every request of both
// binaries; neither lookup may allocate, present or absent.
func TestHeaderLookupsDoNotAllocate(t *testing.T) {
	with := http.Header{}
	with.Set(DeadlineHeader, "5000")
	with.Set(TraceHeader, "cafe0123cafe0123")
	for name, h := range map[string]http.Header{"present": with, "absent": {}} {
		var ms int64
		var id string
		if n := testing.AllocsPerRun(100, func() {
			ms, _, _ = deadlineMs(h)
			id = h.Get(traceKey)
		}); n != 0 {
			t.Errorf("headers %s: %.0f allocations per request, want 0", name, n)
		}
		if name == "present" && (ms != 5000 || id != "cafe0123cafe0123") {
			t.Errorf("looked up deadline %d and trace %q", ms, id)
		}
	}
}
