package tier

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pragformer/internal/api"
	"pragformer/internal/obs"
)

// obsReplica is a fake replica that records the telemetry headers the
// router forwards and answers with a replica-side trace, so tests can
// assert the full propagation loop: client → router → replica → merged
// response.
type obsReplica struct {
	srv      *httptest.Server
	traceID  atomic.Pointer[string]
	deadline atomic.Pointer[string]
	predicts atomic.Int64
	suggests atomic.Int64
}

func newObsReplica(t *testing.T) *obsReplica {
	f := &obsReplica{}
	record := func(r *http.Request) *obs.Wire {
		tid, dl := r.Header.Get(obs.TraceHeader), r.Header.Get(obs.DeadlineHeader)
		f.traceID.Store(&tid)
		f.deadline.Store(&dl)
		if tid == "" {
			return nil
		}
		return &obs.Wire{ID: tid, Spans: []obs.WireSpan{{Name: "replica-infer", DurUs: 42}}}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		f.predicts.Add(1)
		wire := record(r)
		var req api.PredictRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		results := make([]api.PredictResult, len(req.Codes)+len(req.IDs))
		for i := range results {
			results[i] = api.PredictResult{Probability: 0.9, Parallelize: true}
		}
		_ = json.NewEncoder(w).Encode(api.PredictResponse{Results: results, Trace: wire})
	})
	mux.HandleFunc("POST /suggest", func(w http.ResponseWriter, r *http.Request) {
		f.suggests.Add(1)
		wire := record(r)
		var req api.SuggestRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		codes := req.Codes
		if req.Code != "" {
			codes = append(codes, req.Code)
		}
		results := make([]api.SuggestResult, len(codes))
		for i, c := range codes {
			results[i] = fakeVerdict(c)
		}
		_ = json.NewEncoder(w).Encode(api.SuggestResponse{Results: results, Trace: wire})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		writeReadiness(w, api.Readiness{Ready: true, State: "ok", Backend: "fake", Generation: 1})
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *obsReplica) seenTrace() string {
	if p := f.traceID.Load(); p != nil {
		return *p
	}
	return ""
}

func (f *obsReplica) seenDeadline() string {
	if p := f.deadline.Load(); p != nil {
		return *p
	}
	return ""
}

func obsRouter(t *testing.T, f *obsReplica) *Router {
	return newTestRouter(t, Config{Replicas: []string{f.srv.URL}})
}

// TestTracePropagatedToReplica drives the acceptance criterion: a traced
// /suggest routed through the tier carries the trace ID to the replica
// over the fan-out, and the merged response reports router spans
// (admit/route/forward) next to the replica's own.
func TestTracePropagatedToReplica(t *testing.T) {
	f := newObsReplica(t)
	rt := obsRouter(t, f)

	body, _ := json.Marshal(api.SuggestRequest{Codes: []string{"for (i = 0; i < n; i++) a[i] = b[i];"}})
	req := httptest.NewRequest(http.MethodPost, "/suggest", strings.NewReader(string(body)))
	req.Header.Set(obs.TraceHeader, "deadbeefdeadbeef")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(obs.TraceHeader); got != "deadbeefdeadbeef" {
		t.Fatalf("router trace header echo = %q", got)
	}
	if got := f.seenTrace(); got != "deadbeefdeadbeef" {
		t.Fatalf("replica saw trace %q, want the client's id", got)
	}

	var resp api.SuggestResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || resp.Trace.ID != "deadbeefdeadbeef" {
		t.Fatalf("response trace = %+v", resp.Trace)
	}
	names := map[string]bool{}
	for _, s := range resp.Trace.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"admit", "route", "forward", "replica-infer"} {
		if !names[want] {
			t.Errorf("merged trace missing %q span (got %v)", want, names)
		}
	}
}

// TestDeadlinePropagatedToReplica checks the remaining-budget header is
// re-derived at the router and forwarded: the replica sees a positive
// budget no larger than the client's.
func TestDeadlinePropagatedToReplica(t *testing.T) {
	f := newObsReplica(t)
	rt := obsRouter(t, f)

	body, _ := json.Marshal(api.PredictRequest{Codes: []string{"for (i = 0; i < n; i++) a[i] = 0;"}})
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(string(body)))
	req.Header.Set(obs.DeadlineHeader, "5000")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	dl := f.seenDeadline()
	if dl == "" {
		t.Fatal("replica saw no deadline header")
	}
	ms, err := strconv.ParseInt(dl, 10, 64)
	if err != nil || ms <= 0 || ms > 5000 {
		t.Fatalf("replica deadline header = %q, want 0 < ms <= 5000", dl)
	}
}

// TestExpiredDeadlineShedsBeforeForward: a request arriving with an
// already-spent budget is answered 504 by the router; the replica never
// sees it.
func TestExpiredDeadlineShedsBeforeForward(t *testing.T) {
	f := newObsReplica(t)
	rt := obsRouter(t, f)

	body, _ := json.Marshal(api.PredictRequest{Codes: []string{"x"}})
	req := httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(string(body)))
	req.Header.Set(obs.DeadlineHeader, "0")
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", rec.Code)
	}
	if n := f.predicts.Load(); n != 0 {
		t.Fatalf("replica received %d forwards for a dead request", n)
	}
}

// TestStatzErrorsSurfaced: failed health polls against an unreachable
// replica are counted and reported per replica in the router's /statz.
func TestStatzErrorsSurfaced(t *testing.T) {
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // nothing listens here any more

	rt := newTestRouter(t, Config{Replicas: []string{deadURL}, ProbeInterval: 5 * time.Millisecond})

	key := `pf_statz_errors_total{replica="` + deadURL + `"}`
	waitFor(t, "statz errors to accumulate", func() bool {
		var errs float64
		return json.Unmarshal(statz(t, rt)[key], &errs) == nil && errs > 0
	})
}

// TestRouterMetricsEndpoint: the router's GET /metrics speaks Prometheus
// text and carries the tier series the CI smoke greps for.
func TestRouterMetricsEndpoint(t *testing.T) {
	f := newObsReplica(t)
	rt := obsRouter(t, f)

	body, _ := json.Marshal(api.PredictRequest{Codes: []string{"for (i = 0; i < n; i++) a[i] = 0;"}})
	rec := postJSON(t, rt.Handler(), "/predict", json.RawMessage(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict status %d: %s", rec.Code, rec.Body.String())
	}

	mrec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if mrec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", mrec.Code)
	}
	text := mrec.Body.String()
	for _, want := range []string{
		`pf_request_duration_seconds_count{path="/predict"}`,
		"pf_forwards_total",
		"pf_store_hits_total",
		"pf_store_misses_total",
		"pf_statz_errors_total",
		"pf_replica_in_flight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("router metrics missing %q", want)
		}
	}
}
