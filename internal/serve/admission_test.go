package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"pragformer/internal/api"
	"pragformer/internal/core"
)

// Readiness, admission stats, and load shedding — the serving-tier
// surface one replica exposes to the router.

func TestHTTPReadyzTracksDrainingAndReload(t *testing.T) {
	e, srv := httpEngine(t)

	get := func() (int, api.Readiness) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body api.Readiness
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if code, body := get(); code != http.StatusOK || !body.Ready || body.State != "ok" {
		t.Fatalf("fresh engine readyz: %d %+v", code, body)
	}

	e.SetDraining(true)
	if code, body := get(); code != http.StatusServiceUnavailable || body.Ready || body.State != "draining" {
		t.Fatalf("draining readyz: %d %+v", code, body)
	}
	// Liveness stays green the whole time.
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while draining: %d", resp.StatusCode)
	}

	e.SetDraining(false)
	if code, _ := get(); code != http.StatusOK {
		t.Fatalf("undrained readyz: %d", code)
	}
}

// TestHTTPStatzShape reads the engine's counters off GET /statz, keyed as
// /metrics names them, and checks they are the values Stats reports.
func TestHTTPStatzShape(t *testing.T) {
	e, srv := httpEngine(t)

	// Generate some traffic so the counters are non-trivial.
	var out struct {
		Results []api.PredictResult `json:"results"`
	}
	req := api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = 0;"}
	postJSON(t, srv.URL+"/predict", req, &out)
	postJSON(t, srv.URL+"/predict", req, &out) // second: LRU hit

	st := getStatz(t, srv.URL)
	predict := e.Stats().Predict
	for key, want := range map[string]float64{
		`pf_batcher_requests_total{path="predict"}`: 2,
		`pf_cache_hits_total{path="predict"}`:       1,
		`pf_batches_total{path="predict"}`:          float64(predict.Batches),
		`pf_queue_depth{path="predict"}`:            0,
		`pf_in_flight{path="predict"}`:              0,
		`pf_model_generation`:                       0,
	} {
		var got float64
		if err := json.Unmarshal(st[key], &got); err != nil || got != want {
			t.Errorf("statz %s = %s, want %v", key, st[key], want)
		}
	}
	if predict.Requests != 2 || predict.CacheHits != 1 {
		t.Errorf("Stats().Predict = %+v, want 2 requests and 1 cache hit", predict)
	}
	if _, ok := st[`pf_model_weight_bytes{backend="`+e.Stats().Backend+`",classifier="directive"}`]; !ok {
		t.Errorf("statz has no weight series for the serving backend %q", e.Stats().Backend)
	}
}

// With Shed on and the queue saturated, Predict returns ErrSaturated
// instead of blocking. The gated backend holds the first request in the one
// worker's forward, so behind it the path has room for MaxBatch·Replicas (1) more
// and every other request of the flood is shed — on every run, whatever the
// scheduler does.
func TestEngineShedsWhenSaturated(t *testing.T) {
	models := testModels(t)
	gate := gatedBackend{Backend: models.Directive, entered: make(chan struct{}), release: make(chan struct{})}
	models.Directive = gate
	e, err := New(models, Config{
		MaxBatch: 1, Replicas: 1, Shed: true, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids, err := e.encode("for (i = 0; i < n; i++) a[i] = 0;")
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	answers := make(chan error, 1+n)
	predict := func() {
		_, err := e.Predict(context.Background(), ids)
		answers <- err
	}
	go predict()
	<-gate.entered // the first request is in the forward and stays there
	// Flood: many more concurrent requests than the queue can hold.
	for i := 0; i < n; i++ {
		go predict()
	}

	shed, total := 0, 1+n
	// Only a shed request can be answered while the gate is shut.
	for i := 0; i < n-1; i++ {
		select {
		case err := <-answers:
			if !errors.Is(err, ErrSaturated) {
				t.Fatalf("a request was answered while the forward was held, and not with ErrSaturated: %v", err)
			}
			shed++
		case <-time.After(30 * time.Second):
			t.Fatalf("%d requests shed with the path full, want %d: %+v", shed, n-1, e.Stats().Predict)
		}
	}

	// Open the gate: every admitted request is answered.
	close(gate.release)
	go func() {
		for range gate.entered {
		}
	}()
	for i := n - 1; i < total; i++ {
		if err := <-answers; err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	close(gate.entered)
	if shed == 0 {
		t.Fatal("no request was shed at saturation")
	}
	if shed == total {
		t.Fatal("every request was shed; queue never admitted work")
	}
	if e.Stats().Predict.Sheds != uint64(shed) {
		t.Fatalf("sheds counter %d, want %d", e.Stats().Predict.Sheds, shed)
	}
}

// gatedBackend is a directive classifier whose forward waits for the test:
// every PredictBatch and PredictBatchInto announces itself on entered, then
// blocks until release is closed.
type gatedBackend struct {
	core.Backend
	entered chan struct{}
	release chan struct{}
}

func (g gatedBackend) PredictBatch(idsBatch [][]int) []float64 {
	g.entered <- struct{}{}
	<-g.release
	return g.Backend.PredictBatch(idsBatch)
}

func (g gatedBackend) PredictBatchInto(dst []float64, idsBatch [][]int) {
	g.entered <- struct{}{}
	<-g.release
	g.Backend.PredictBatchInto(dst, idsBatch)
}

// TestHTTPShedIs429: a request that finds the predict path full is answered
// 429 with Retry-After. The gated backend holds the first request in the one
// worker's forward, so nothing admitted after it can be answered before the
// gate opens; behind the worker the path has room for MaxBatch·Replicas (1) more
// alone, so of any three further requests at least one is shed — on every
// run, whatever the scheduler does.
func TestHTTPShedIs429(t *testing.T) {
	models := testModels(t)
	gate := gatedBackend{Backend: models.Directive, entered: make(chan struct{}), release: make(chan struct{})}
	models.Directive = gate
	e, err := New(models, Config{
		MaxBatch: 1, Replicas: 1, Shed: true, CacheSize: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	body, _ := json.Marshal(api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = 0;"})
	const extra = 3
	answers := make(chan *http.Response, 1+extra)
	post := func() {
		resp, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			answers <- nil
			return
		}
		resp.Body.Close()
		answers <- resp
	}
	go post()
	<-gate.entered // the first request is in the forward and stays there
	for i := 0; i < extra; i++ {
		go post()
	}

	// Only a shed request can be answered while the gate is shut.
	shed := 0
	check := func(resp *http.Response) {
		switch {
		case resp == nil:
		case resp.StatusCode == http.StatusTooManyRequests:
			shed++
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
		case resp.StatusCode != http.StatusOK:
			t.Errorf("request answered %d, want 200 or 429", resp.StatusCode)
		}
	}
	select {
	case resp := <-answers:
		check(resp)
		if shed != 1 {
			t.Fatalf("a request was answered while the forward was held, and not with 429: %+v", resp)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("no request was shed with the path full: %+v", e.Stats().Predict)
	}

	// Open the gate: every admitted request is answered 200.
	close(gate.release)
	go func() {
		for range gate.entered {
		}
	}()
	for i := 0; i < extra; i++ {
		check(<-answers)
	}
	close(gate.entered)
	if shed == 1+extra {
		t.Error("every request was shed, the held one included")
	}
	if got := e.Stats().Predict.Sheds; got != uint64(shed) {
		t.Errorf("sheds counter %d, %d requests answered 429", got, shed)
	}
}
