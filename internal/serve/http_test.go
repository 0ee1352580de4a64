package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"pragformer/internal/api"
)

// httpEngine spins up an engine plus httptest server around its Handler.
func httpEngine(t *testing.T) (*Engine, *httptest.Server) {
	t.Helper()
	e, err := New(testModels(t), Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		srv.Close()
		e.Close()
	})
	return e, srv
}

// postJSON posts v and decodes the response into out, returning the status.
func postJSON(t *testing.T, url string, v, out any) int {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return resp.StatusCode
}

// getStatz reads GET /statz: one value per registry series.
func getStatz(t *testing.T, url string) map[string]json.RawMessage {
	t.Helper()
	resp, err := http.Get(url + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/json" {
		t.Fatalf("statz: status %d, content type %q", resp.StatusCode, ct)
	}
	var st map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestHTTPPredict(t *testing.T) {
	e, srv := httpEngine(t)
	var resp struct {
		Results []api.PredictResult `json:"results"`
	}
	req := api.PredictRequest{Codes: []string{
		"for (i = 0; i < n; i++) a[i] = 0;",
		"for (i = 0; i < `n`", // unlexable: inline error
	}}
	if code := postJSON(t, srv.URL+"/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	ids, err := e.encode(req.Codes[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := predictOne(e.Models().Directive, ids); resp.Results[0].Probability != want {
		t.Errorf("probability %v != direct %v", resp.Results[0].Probability, want)
	}
	if resp.Results[0].Error != "" {
		t.Errorf("unexpected error %q", resp.Results[0].Error)
	}
	if resp.Results[1].Error == "" {
		t.Error("unlexable snippet should carry an inline error")
	}
}

func TestHTTPPredictIDs(t *testing.T) {
	e, srv := httpEngine(t)
	var resp struct {
		Results []api.PredictResult `json:"results"`
	}
	ids := []int{2, 5, 6, 7}
	vocab := e.Models().Directive.VocabSize()
	req := api.PredictRequest{IDs: [][]int{ids, {}, {vocab}, {-1}}}
	if code := postJSON(t, srv.URL+"/predict", req, &resp); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if want := predictOne(e.Models().Directive, ids); resp.Results[0].Probability != want {
		t.Errorf("probability %v != direct %v", resp.Results[0].Probability, want)
	}
	if resp.Results[1].Error == "" {
		t.Error("empty id sequence should carry an inline error")
	}
	// Out-of-range ids must be rejected at the boundary, not panic a
	// batch worker and take the server down.
	if resp.Results[2].Error == "" || resp.Results[3].Error == "" {
		t.Errorf("out-of-range ids accepted: %+v %+v", resp.Results[2], resp.Results[3])
	}
}

func TestHTTPSuggest(t *testing.T) {
	e, srv := httpEngine(t)
	var resp struct {
		Results []api.SuggestResult `json:"results"`
	}
	code := "for (i = 0; i < n; i++) a[i] = 0;"
	if st := postJSON(t, srv.URL+"/suggest", api.SuggestRequest{Code: code}, &resp); st != http.StatusOK {
		t.Fatalf("status %d", st)
	}
	if len(resp.Results) != 1 {
		t.Fatalf("got %d results", len(resp.Results))
	}
	want, err := e.Models().Suggest(code)
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0]
	if got.Probability != want.Probability || got.Parallelize != want.Parallelize {
		t.Errorf("suggest %+v != direct %+v", got, want)
	}
	if want.Directive != nil && got.Directive != want.Directive.String() {
		t.Errorf("directive %q != %q", got.Directive, want.Directive)
	}
}

// TestSuggestAllocs gates a replica's single-item /suggest answer: 15
// allocations when every call runs the advisor (the cache off), 2 when the
// cache answers. The counts are process-wide, the batch worker's included.
func TestSuggestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	codes := []string{"for (i = 0; i < n; i++) a[i] = b[i] * 2;"}
	for _, tc := range []struct {
		name      string
		cacheSize int
		max       float64
	}{{"uncached", -1, 15}, {"cached", 0, 2}} {
		e, err := New(testModels(t), Config{CacheSize: tc.cacheSize})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if res, _ := e.suggestAll(ctx, codes); res[0].Error != "" {
			t.Fatalf("%s: %s", tc.name, res[0].Error)
		}
		got := testing.AllocsPerRun(50, func() { e.suggestAll(ctx, codes) })
		e.Close()
		t.Logf("allocations per %s single-item /suggest answer: %.1f", tc.name, got)
		if got > tc.max {
			t.Errorf("a %s single-item /suggest answer allocates %.1f times, want at most %.0f", tc.name, got, tc.max)
		}
	}
}

func TestHTTPHealthzAndErrors(t *testing.T) {
	_, srv := httpEngine(t)

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Errorf("healthz = %d %+v", resp.StatusCode, hz)
	}

	// Malformed JSON is a 400.
	bad, err := http.Post(srv.URL+"/predict", "application/json", bytes.NewReader([]byte("{")))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", bad.StatusCode)
	}

	// Wrong method is rejected by the mux.
	get, err := http.Get(srv.URL + "/predict")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /predict: status %d, want 405", get.StatusCode)
	}
}
