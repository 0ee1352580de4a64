package api_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pragformer/internal/api"
	"pragformer/internal/dep"
	"pragformer/internal/scan"
	"pragformer/internal/serve"
)

// TestWireGolden pins the exact bytes of the shapes both binaries render.
// The expected strings were generated from the hand-written wire structs
// this package replaced; a change here is a wire-format change.
func TestWireGolden(t *testing.T) {
	full := api.SuggestResult{Suggestion: scan.Suggestion{
		Parallelize: true,
		Probability: 0.875,
		Directive:   "#pragma omp parallel for private(t) reduction(+: sum)",
		Tier:        "disagree",
		Witness:     []string{"loop-carried flow dependence on a"},
		Races: []dep.Witness{{
			Array: "a", Kind: "flow",
			Source:   dep.Site{Expr: "a[i]", Write: true, Line: 2, Col: 3},
			Sink:     dep.Site{Expr: "a[i - 1]", Line: 2, Col: 10},
			Vector:   []string{"<"},
			Distance: "(1)",
			Reason:   "strong SIV",
		}},
		Converted: []string{"private(t)"},
		S2S: []scan.S2SVerdict{
			{Compiler: "Cetus", Compiled: true, Parallelized: true},
			{Compiler: "AutoPar", Compiled: false, Detail: "frontend rejected the snippet"},
		},
		Attributions: []scan.Attribution{
			{Index: 0, Token: "for", Weight: 0.25},
			{Index: 1, Token: "("},
		},
		Notes: []string{"private: t written before read"},
	}}
	busy := serve.PathStats{Requests: 8, CacheHits: 2, Batches: 2, Items: 6, Sheds: 1,
		DeadlineExceeded: 1, QueueDepth: 3, InFlight: 4}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"suggest result, every field", full,
			`{"parallelize":true,"probability":0.875,"directive":"#pragma omp parallel for private(t) reduction(+: sum)","tier":"disagree","witness":["loop-carried flow dependence on a"],"races":[{"array":"a","kind":"flow","source":{"expr":"a[i]","write":true,"line":2,"col":3},"sink":{"expr":"a[i - 1]","write":false,"line":2,"col":10},"vector":["\u003c"],"distance":"(1)","reason":"strong SIV"}],"converted":["private(t)"],"s2s":[{"compiler":"Cetus","compiled":true,"parallelized":true},{"compiler":"AutoPar","compiled":false,"detail":"frontend rejected the snippet"}],"attributions":[{"index":0,"token":"for","weight":0.25},{"index":1,"token":"("}],"notes":["private: t written before read"]}`},
		// The one permitted difference from the replaced structs: an error
		// item no longer carries a meaningless "probability":0.
		{"suggest result, error", api.SuggestResult{Error: "lex: unexpected character"},
			`{"parallelize":false,"error":"lex: unexpected character"}`},
		{"predict result", api.PredictResult{Probability: 0.75, Parallelize: true},
			`{"probability":0.75,"parallelize":true}`},
		{"predict result, error", api.PredictResult{Error: "empty id sequence"},
			`{"probability":0,"parallelize":false,"error":"empty id sequence"}`},
		{"replica statz, every key", serve.Statz{
			Stats:   serve.Stats{Backend: "int8", Generation: 2, Draining: true, Reloading: true, Reloads: 3, Predict: busy},
			Latency: map[string]api.Latency{"/predict": {Count: 8, P50Ms: 0.5, P90Ms: 1, P99Ms: 2, MaxMs: 2.5}}},
			`{"backend":"int8","generation":2,"draining":true,"reloading":true,"reloads":3,"predict":{"requests":8,"cache_hits":2,"batches":2,"items":6,"sheds":1,"deadline_exceeded":1,"queue_depth":3,"in_flight":4,"avg_batch":3,"hit_rate":0.25},"suggest":{"requests":0,"cache_hits":0,"batches":0,"items":0,"sheds":0,"deadline_exceeded":0,"queue_depth":0,"in_flight":0,"avg_batch":0,"hit_rate":0},"latency":{"/predict":{"count":8,"p50_ms":0.5,"p90_ms":1,"p99_ms":2,"max_ms":2.5}}}`},
		{"replica statz, idle", serve.Statz{Latency: map[string]api.Latency{}},
			`{"backend":"","generation":0,"draining":false,"reloading":false,"reloads":0,"predict":{"requests":0,"cache_hits":0,"batches":0,"items":0,"sheds":0,"deadline_exceeded":0,"queue_depth":0,"in_flight":0,"avg_batch":0,"hit_rate":0},"suggest":{"requests":0,"cache_hits":0,"batches":0,"items":0,"sheds":0,"deadline_exceeded":0,"queue_depth":0,"in_flight":0,"avg_batch":0,"hit_rate":0}}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}

	// What the router's prober reads back out of the replica statz body.
	var st serve.Statz
	if err := json.Unmarshal([]byte(`{"generation":2,"predict":{"queue_depth":3,"avg_batch":3},"latency":{"/scan":{"p99_ms":2}}}`), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.Predict.QueueDepth != 3 || st.Latency["/scan"].P99Ms != 2 {
		t.Errorf("statz decoded to %+v", st)
	}
}

func TestDecodeBody(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"ok", `{"code": "x"}`, http.StatusOK},
		{"malformed", `{"code": `, http.StatusBadRequest},
		{"wrong type", `{"code": 3}`, http.StatusBadRequest},
		{"at the cap", `{"code": "` + strings.Repeat("x", api.MaxBodyBytes-12) + `"}`, http.StatusOK},
		{"over the cap", `{"code": "` + strings.Repeat("x", api.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
	} {
		w := httptest.NewRecorder()
		var req api.SuggestRequest
		ok := api.DecodeBody(w, httptest.NewRequest(http.MethodPost, "/suggest", strings.NewReader(tc.body)), &req)
		if w.Code != tc.status || ok != (tc.status == http.StatusOK) {
			t.Errorf("%s: ok=%v status %d, want %d", tc.name, ok, w.Code, tc.status)
		}
	}
}
