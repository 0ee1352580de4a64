package api_test

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/api"
	"pragformer/internal/dep"
	"pragformer/internal/obs"
	"pragformer/internal/scan"
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
	}}
	for _, tc := range []struct {
		name string
		v    any
		want string
	}{
		{"suggest result, every field", full,
			`{"parallelize":true,"probability":0.875,"directive":"#pragma omp parallel for private(t) reduction(+: sum)","tier":"disagree","witness":["loop-carried flow dependence on a"],"races":[{"array":"a","kind":"flow","source":{"expr":"a[i]","write":true,"line":2,"col":3},"sink":{"expr":"a[i - 1]","write":false,"line":2,"col":10},"vector":["\u003c"],"distance":"(1)","reason":"strong SIV"}],"converted":["private(t)"],"s2s":[{"compiler":"Cetus","compiled":true,"parallelized":true},{"compiler":"AutoPar","compiled":false,"detail":"frontend rejected the snippet"}],"attributions":[{"index":0,"token":"for","weight":0.25},{"index":1,"token":"("}]}`},
		// The one permitted difference from the replaced structs: an error
		// item no longer carries a meaningless "probability":0.
		{"suggest result, error", api.SuggestResult{Error: "lex: unexpected character"},
			`{"parallelize":false,"error":"lex: unexpected character"}`},
		{"predict result", api.PredictResult{Probability: 0.75, Parallelize: true},
			`{"probability":0.75,"parallelize":true}`},
		{"predict result, error", api.PredictResult{Error: "empty id sequence"},
			`{"probability":0,"parallelize":false,"error":"empty id sequence"}`},
		// Generated from the replica's private /readyz struct this type
		// replaced.
		{"readiness", api.Readiness{State: "draining", Backend: "int8", Generation: 2},
			`{"ready":false,"state":"draining","backend":"int8","generation":2}`},
	} {
		got, err := json.Marshal(tc.v)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
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

// TestDecodeBodyErrors pins the reply to each body DecodeBody refuses. A
// body is read whole and unmarshalled as one value, so bytes after the
// value are refused too: a second object once got a 200 that answered the
// first alone. An empty and a truncated body read "EOF" and "unexpected
// EOF" while the body was decoded as a stream.
func TestDecodeBodyErrors(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		status     int
		reply      string
	}{
		{"empty", ``, http.StatusBadRequest,
			`{"error":"bad request: unexpected end of JSON input"}`},
		{"truncated", `{"code": "a`, http.StatusBadRequest,
			`{"error":"bad request: unexpected end of JSON input"}`},
		{"trailing bytes", `{"code":"a"}{"code":"b"}`, http.StatusBadRequest,
			`{"error":"bad request: invalid character '{' after top-level value"}`},
		{"oversized", `{"code": "` + strings.Repeat("x", api.MaxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge,
			`{"error":"request body exceeds 16777216 bytes"}`},
	} {
		w := httptest.NewRecorder()
		var req api.SuggestRequest
		if api.DecodeBody(w, httptest.NewRequest(http.MethodPost, "/suggest", strings.NewReader(tc.body)), &req) {
			t.Errorf("%s: accepted as %+v", tc.name, req)
			continue
		}
		if got := strings.TrimSuffix(w.Body.String(), "\n"); w.Code != tc.status || got != tc.reply {
			t.Errorf("%s: %d %s, want %d %s", tc.name, w.Code, got, tc.status, tc.reply)
		}
	}
	// Whitespace after the value is not trailing data.
	var req api.SuggestRequest
	if w := httptest.NewRecorder(); !api.DecodeBody(w, httptest.NewRequest(http.MethodPost, "/suggest", strings.NewReader("{\"code\":\"a\"}\n")), &req) || req.Code != "a" {
		t.Errorf("a body ending in a newline: %d %s", w.Code, w.Body)
	}
}

// TestServeShells drives the /predict and /suggest shells with stub answer
// functions: what a replica and the router both inherit from them.
func TestServeShells(t *testing.T) {
	const shedMsg = "stub saturated"
	var seen []string // the items of the last answered request, in answer order
	// The stub sheds "shed", fails "bad" inline and answers anything else.
	outcome := func(item string) (errMsg string, shed int) {
		seen = append(seen, item)
		switch item {
		case "shed":
			return "busy", 1
		case "bad":
			return "lex: unexpected character", 0
		}
		return "", 0
	}
	shells := map[string]http.HandlerFunc{
		"/predict": func(w http.ResponseWriter, r *http.Request) {
			api.ServePredict(w, r, shedMsg, func(_ context.Context, codes []string, ids [][]int) ([]api.PredictResult, int) {
				results, shed := make([]api.PredictResult, 0, len(codes)+len(ids)), 0
				for _, item := range append(slices.Clone(codes), make([]string, len(ids))...) {
					msg, s := outcome(item)
					results, shed = append(results, api.PredictResult{Probability: 0.75, Error: msg}), shed+s
				}
				return results, shed
			})
		},
		"/suggest": func(w http.ResponseWriter, r *http.Request) {
			api.ServeSuggest(w, r, shedMsg, func(_ context.Context, codes []string) ([]api.SuggestResult, int) {
				results, shed := make([]api.SuggestResult, 0, len(codes)), 0
				for _, item := range codes {
					msg, s := outcome(item)
					results, shed = append(results, api.SuggestResult{Error: msg}), shed+s
				}
				return results, shed
			})
		},
	}
	type reply struct {
		Error   string `json:"error"`
		Results []struct {
			Error string `json:"error"`
		} `json:"results"`
		Trace *obs.Wire `json:"trace"`
	}
	for path, shell := range shells {
		post := func(body string, traced bool) (*httptest.ResponseRecorder, reply) {
			t.Helper()
			seen = nil
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
			if traced {
				req = req.WithContext(obs.WithTrace(req.Context(), obs.NewTrace("cafe")))
			}
			rec := httptest.NewRecorder()
			shell(rec, req)
			var got reply
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("%s %s: body %q: %v", path, body, rec.Body, err)
			}
			return rec, got
		}

		// Every item shed: the whole request is a 429 in the caller's words.
		rec, got := post(`{"code":"shed","codes":["shed","shed"]}`, false)
		if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") != "1" || got.Error != shedMsg {
			t.Errorf("%s all shed: status %d, Retry-After %q, error %q", path, rec.Code, rec.Header().Get("Retry-After"), got.Error)
		}

		// Mixed: 200 with the errors inline, codes answered before code.
		rec, got = post(`{"code":"bad","codes":["shed","fine"]}`, false)
		if rec.Code != http.StatusOK || len(got.Results) != 3 ||
			got.Results[0].Error != "busy" || got.Results[1].Error != "" || got.Results[2].Error != "lex: unexpected character" {
			t.Errorf("%s mixed: status %d, body %s", path, rec.Code, rec.Body)
		}
		if !slices.Equal(seen, []string{"shed", "fine", "bad"}) {
			t.Errorf("%s: items answered as %q, want codes before code", path, seen)
		}
		if got.Trace != nil || strings.Contains(rec.Body.String(), `"trace"`) {
			t.Errorf("%s: untraced request answered with a trace: %s", path, rec.Body)
		}

		// No item at all is an empty 200, not a shed.
		if rec, got = post(`{}`, false); rec.Code != http.StatusOK || got.Results == nil || len(got.Results) != 0 {
			t.Errorf("%s empty: status %d, body %s", path, rec.Code, rec.Body)
		}

		if _, got = post(`{"code":"fine"}`, true); got.Trace == nil || got.Trace.ID != "cafe" {
			t.Errorf("%s traced: trace %+v", path, got.Trace)
		}

		rec, _ = post(`{"code": "`+strings.Repeat("x", api.MaxBodyBytes)+`"}`, false)
		if rec.Code != http.StatusRequestEntityTooLarge || seen != nil {
			t.Errorf("%s oversize: status %d, %d items answered", path, rec.Code, len(seen))
		}
	}

	// /predict alone takes raw ids; they are answered after code.
	seen = nil
	rec := httptest.NewRecorder()
	shells["/predict"](rec, httptest.NewRequest(http.MethodPost, "/predict",
		strings.NewReader(`{"ids":[[1,2]],"code":"b","codes":["a"]}`)))
	if !slices.Equal(seen, []string{"a", "b", ""}) {
		t.Errorf("/predict: items answered as %q, want codes, code, ids", seen)
	}
}
