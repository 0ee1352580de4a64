package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"pragformer/internal/api"
	"pragformer/internal/obs"
)

// TestDeadlineShedBeforeInference is the acceptance check for deadline
// propagation: a request whose client budget has already expired must be
// dropped at admission — before any batch runs — and counted.
func TestDeadlineShedBeforeInference(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := e.Predict(ctx, []int{1, 5, 6}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Predict with expired deadline: err = %v, want DeadlineExceeded", err)
	}

	st := e.Stats()
	if st.Predict.DeadlineExceeded == 0 {
		t.Fatal("DeadlineExceeded counter not incremented")
	}
	if st.Predict.Batches != 0 {
		t.Fatalf("engine executed %d batches for an already-dead request", st.Predict.Batches)
	}
}

// TestHTTPDeadlineHeader checks the wire form of the same contract: an
// expired X-PF-Deadline-Ms answers 504 before the handler runs, and a
// malformed one answers 400.
func TestHTTPDeadlineHeader(t *testing.T) {
	e, srv := httpEngine(t)

	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/predict",
		strings.NewReader(`{"code":"for (i = 0; i < n; i++) a[i] = 0;"}`))
	req.Header.Set(obs.DeadlineHeader, "0")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: status %d, want 504", resp.StatusCode)
	}
	if b := e.Stats().Predict.Batches; b != 0 {
		t.Fatalf("expired request still ran %d batches", b)
	}

	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/predict",
		strings.NewReader(`{"code":"x"}`))
	req.Header.Set(obs.DeadlineHeader, "soon")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed deadline: status %d, want 400", resp.StatusCode)
	}
}

// TestMetricsEndpoint exercises GET /metrics end to end: Prometheus text
// with the request-duration histogram and the batcher series.
func TestMetricsEndpoint(t *testing.T) {
	_, srv := httpEngine(t)

	var out struct {
		Results []api.PredictResult `json:"results"`
	}
	if code := postJSON(t, srv.URL+"/predict",
		api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = 0;"}, &out); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		`pf_request_duration_seconds_bucket{path="/predict"`,
		`pf_request_duration_seconds_count{path="/predict"}`,
		`pf_batch_queue_wait_seconds_count{path="predict"}`,
		`pf_batch_compute_seconds_count{path="predict"}`,
		`pf_batcher_requests_total{path="predict"}`,
		`pf_batches_total{path="predict"}`,
		`pf_model_generation`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

// TestStatzLatencyPercentiles checks the /statz JSON carries the count,
// sum and p50/p90/p99/max view of the same histogram /metrics exposes.
func TestStatzLatencyPercentiles(t *testing.T) {
	_, srv := httpEngine(t)

	var out struct {
		Results []api.PredictResult `json:"results"`
	}
	if code := postJSON(t, srv.URL+"/predict",
		api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = 0;"}, &out); code != http.StatusOK {
		t.Fatalf("predict status %d", code)
	}

	st := getStatz(t, srv.URL)
	var l struct {
		Count              uint64
		Sum, P50, P90, P99 float64
		Max                float64
	}
	if err := json.Unmarshal(st[`pf_request_duration_seconds{path="/predict"}`], &l); err != nil {
		t.Fatalf("statz request duration for /predict: %v", err)
	}
	if l.Count != 1 || l.Sum <= 0 || l.P50 > l.P90 || l.P90 > l.P99 || l.P99 > l.Max {
		t.Fatalf("implausible latency stats: %+v", l)
	}
	if _, ok := st[`pf_deadline_exceeded_total{path="predict"}`]; !ok {
		t.Fatal("statz missing the predict path's deadline_exceeded counter")
	}
}

// TestTraceSpansInResponse checks the request-trace contract on one
// replica: an X-PF-Trace request gets its ID echoed (header and body) and
// spans covering the batcher queue and compute; an untraced request's body
// carries no trace key at all.
func TestTraceSpansInResponse(t *testing.T) {
	_, srv := httpEngine(t)

	body := `{"code":"for (i = 0; i < n; i++) a[i] = 0;"}`
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/predict", strings.NewReader(body))
	req.Header.Set(obs.TraceHeader, "cafe0123cafe0123")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != "cafe0123cafe0123" {
		t.Fatalf("trace header echo = %q", got)
	}
	var out struct {
		Trace *obs.Wire `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Trace == nil || out.Trace.ID != "cafe0123cafe0123" {
		t.Fatalf("response trace = %+v, want id echoed", out.Trace)
	}
	names := map[string]bool{}
	for _, s := range out.Trace.Spans {
		names[s.Name] = true
	}
	for _, want := range []string{"queue-wait", "batch-compute", "infer"} {
		if !names[want] {
			t.Errorf("trace missing %q span (got %v)", want, names)
		}
	}

	// Untraced request: no trace key in the body (goldens and clients that
	// never asked for tracing see byte-identical responses).
	resp2, err := http.Post(srv.URL+"/predict", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), `"trace"`) {
		t.Fatalf("untraced response leaked a trace field: %s", raw)
	}
}

// TestStageHistogramsResolvedAtBuild: the advisor's two stage series are
// there before any /suggest traffic, one batch moves each by one, and a
// reload keeps observing into the same series.
func TestStageHistogramsResolvedAtBuild(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var text strings.Builder
	if err := e.Metrics().WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	hists := map[string]*obs.Histogram{}
	for _, stage := range []string{"infer", "corroborate"} {
		if want := `pf_stage_duration_seconds_count{stage="` + stage + `"} 0`; !strings.Contains(text.String(), want) {
			t.Errorf("a fresh engine's /metrics is missing %q", want)
		}
		hists[stage] = e.Metrics().Histogram("pf_stage_duration_seconds", "", obs.Labels{"stage": stage}, nil)
	}
	suggest := func(code string, want uint64) {
		t.Helper()
		if _, err := e.Suggest(context.Background(), code); err != nil {
			t.Fatal(err)
		}
		for stage, h := range hists {
			if got := h.Count(); got != want {
				t.Errorf("stage %s observed %d batches, want %d", stage, got, want)
			}
		}
	}
	suggest("for (i = 0; i < n; i++) a[i] = 0;", 1)
	if err := e.Reload(testModelsSeed(t, 6)); err != nil {
		t.Fatal(err)
	}
	suggest("for (i = 0; i < n; i++) a[i] = b[i];", 2)
}
