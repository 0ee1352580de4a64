package tier

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"pragformer/internal/api"
	"pragformer/internal/dep"
	"pragformer/internal/scan"
)

// fakeReplica is a scripted cmd/serve stand-in: deterministic verdicts,
// countable forwards, a reload that bumps the generation, and fault
// injection for the ejection tests.
type fakeReplica struct {
	t *testing.T

	gen        atomic.Uint64
	reloading  atomic.Bool
	failing    atomic.Bool // respond 500 to everything
	predicts   atomic.Int64
	suggests   atomic.Int64
	violations atomic.Int64 // traffic observed mid-reload
	// midSuggest, when set, runs inside every /suggest handler — between
	// the router sending a forward and receiving its reply.
	midSuggest atomic.Pointer[func()]

	srv *httptest.Server
}

// fakeVerdict is the deterministic verdict the fake fleet returns; tests
// compare against the same function. A loop that writes an array named fail
// gets an error item instead. Every field is populated, so the
// cold==warm byte comparisons cover the whole verdict through forward →
// decode → store → reply.
func fakeVerdict(code string) api.SuggestResult {
	if strings.Contains(code, "fail[") {
		return api.SuggestResult{Error: "fake: refused " + scan.HashSnippet(code)[:8]}
	}
	return api.SuggestResult{Suggestion: scan.Suggestion{
		Parallelize: true,
		Probability: 0.75,
		Directive:   "#pragma omp parallel for private(t)",
		Tier:        "disagree",
		// The witness tags the verdict with the loop it answers.
		Witness: []string{"fake:" + scan.HashSnippet(code)[:8]},
		Races: []dep.Witness{{
			Array: "a", Kind: "flow",
			Source:   dep.Site{Expr: "a[i]", Write: true, Line: 2, Col: 2},
			Sink:     dep.Site{Expr: "a[i - 1]", Line: 2, Col: 9},
			Vector:   []string{"<", "="},
			Distance: "(1, 0)",
			Reason:   "strong SIV",
		}},
		Converted: []string{"private(t)"},
		S2S: []scan.S2SVerdict{
			{Compiler: "Cetus", Compiled: true, Parallelized: true},
			{Compiler: "AutoPar", Detail: "frontend rejected the snippet"},
		},
		Attributions: []scan.Attribution{
			{Index: 0, Token: "for", Weight: 0.25},
			{Index: 1, Token: "("},
		},
	}}
}

func newFakeReplica(t *testing.T) *fakeReplica {
	f := &fakeReplica{t: t}
	f.gen.Store(1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", func(w http.ResponseWriter, r *http.Request) {
		if f.fail(w) {
			return
		}
		if f.reloading.Load() {
			f.violations.Add(1)
		}
		f.predicts.Add(1)
		var req api.PredictRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		n := len(req.Codes) + len(req.IDs)
		results := make([]api.PredictResult, n)
		for i := range results {
			results[i] = api.PredictResult{Probability: 0.9, Parallelize: true}
		}
		_ = json.NewEncoder(w).Encode(api.PredictResponse{Results: results})
	})
	mux.HandleFunc("POST /suggest", func(w http.ResponseWriter, r *http.Request) {
		if f.fail(w) {
			return
		}
		if f.reloading.Load() {
			f.violations.Add(1)
		}
		f.suggests.Add(1)
		if hook := f.midSuggest.Load(); hook != nil {
			(*hook)()
		}
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
		_ = json.NewEncoder(w).Encode(api.SuggestResponse{Results: results})
	})
	mux.HandleFunc("POST /reload", func(w http.ResponseWriter, r *http.Request) {
		if f.fail(w) {
			return
		}
		f.reloading.Store(true)
		time.Sleep(20 * time.Millisecond)
		f.gen.Add(1)
		f.reloading.Store(false)
		_ = json.NewEncoder(w).Encode(map[string]any{"status": "reloaded"})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		if f.fail(w) {
			return
		}
		rd := api.Readiness{Ready: true, State: "ok", Backend: "fake", Generation: f.gen.Load()}
		if f.reloading.Load() {
			rd.Ready, rd.State = false, "reloading"
		}
		writeReadiness(w, rd)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

// writeReadiness answers GET /readyz as a replica does: the body, with a
// 200 when ready and a 503 otherwise.
func writeReadiness(w http.ResponseWriter, rd api.Readiness) {
	status := http.StatusOK
	if !rd.Ready {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, rd)
}

func (f *fakeReplica) fail(w http.ResponseWriter) bool {
	if f.failing.Load() {
		w.WriteHeader(http.StatusInternalServerError)
		_ = json.NewEncoder(w).Encode(map[string]string{"error": "injected failure"})
		return true
	}
	return false
}

// newTestRouter builds a router over the fakes with test-friendly pacing.
func newTestRouter(t *testing.T, cfg Config, fakes ...*fakeReplica) *Router {
	for _, f := range fakes {
		cfg.Replicas = append(cfg.Replicas, f.srv.URL)
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 10 * time.Millisecond
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postJSON(t *testing.T, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func testCodes(n int) []string {
	codes := make([]string, n)
	for i := range codes {
		codes[i] = fmt.Sprintf("for (i = 0; i < %d; i++)\n\ta[i] = i;\n", i+2)
	}
	return codes
}

func TestRouterPredictFansOut(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{}, a, b)
	h := rt.Handler()

	codes := testCodes(32)
	rec := postJSON(t, h, "/predict", api.PredictRequest{Codes: codes, IDs: [][]int{{1, 2, 3}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}
	var resp api.PredictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(codes)+1 {
		t.Fatalf("got %d results, want %d", len(resp.Results), len(codes)+1)
	}
	for i, r := range resp.Results {
		if r.Error != "" || !r.Parallelize {
			t.Fatalf("result %d: %+v", i, r)
		}
	}
	// With 32 distinct loops both replicas should have seen traffic.
	if a.predicts.Load() == 0 || b.predicts.Load() == 0 {
		t.Fatalf("fan-out skipped a replica: a=%d b=%d", a.predicts.Load(), b.predicts.Load())
	}
}

func TestRouterRoutingIsStickyByContent(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{}, a, b)

	// The same loop under different formatting must route to the same
	// replica: the key is the canonical print's hash.
	k1 := routeKey("for (i = 0; i < n; i++) a[i] = i;")
	k2 := routeKey("for (i=0;i<n;i++)   a[i]=i;")
	if k1 != k2 {
		t.Fatalf("formatting changed the routing key: %s vs %s", k1, k2)
	}
	if rt.pick(k1).name != rt.pick(k2).name {
		t.Fatal("same canonical loop routed to different replicas")
	}
}

func TestRouterShedsAtHardCap(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{MaxInFlight: 4}, a, b)

	// Saturate the bounded-load accounting: every replica at the hard cap.
	for _, rep := range rt.reps {
		rep.inflight.Store(4)
	}
	rec := postJSON(t, rt.Handler(), "/predict", api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = i;"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated predict: %d %s, want 429", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if rt.sheds.Value() == 0 {
		t.Fatal("shed counter not bumped")
	}
	// Load released: traffic flows again.
	for _, rep := range rt.reps {
		rep.inflight.Store(0)
	}
	rec = postJSON(t, rt.Handler(), "/predict", api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = i;"})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-release predict: %d %s", rec.Code, rec.Body)
	}
}

func TestRouterSpillsBeforeShedding(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{MaxInFlight: 4}, a, b)

	key := routeKey("for (i = 0; i < n; i++) a[i] = i;")
	owner := rt.ring.walk(nil, key)[0]
	// Saturate only the owner: the key must spill to the other replica,
	// not shed.
	rt.reps[owner].inflight.Store(4)
	picked := rt.pick(key)
	if picked == nil {
		t.Fatal("pick shed with a free replica available")
	}
	if picked.name == owner {
		t.Fatal("pick chose the saturated owner")
	}
}

func TestRouterClientRateLimit(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{RatePerSec: 0.001, Burst: 2}, a)
	h := rt.Handler()

	body := api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = i;"}
	for i := 0; i < 2; i++ {
		if rec := postJSON(t, h, "/predict", body); rec.Code != http.StatusOK {
			t.Fatalf("request %d within burst: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec := postJSON(t, h, "/predict", body)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: %d, want 429", rec.Code)
	}
	if rt.rateLimited.Value() != 1 {
		t.Fatalf("rateLimited = %d, want 1", rt.rateLimited.Value())
	}
	// A different client identity has its own bucket.
	buf, _ := json.Marshal(body)
	req := httptest.NewRequest(http.MethodPost, "/predict", bytes.NewReader(buf))
	req.Header.Set("X-Client-ID", "other")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("fresh client: %d %s", rec.Code, rec.Body)
	}
}

func TestRouterEjectsAndReadmits(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{FailThreshold: 3}, a)
	h := rt.Handler()

	a.failing.Store(true)
	// Forward failures (500s) count toward ejection; the prober's failing
	// readiness probes count too. Either way the replica must leave rotation.
	for i := 0; i < 3; i++ {
		postJSON(t, h, "/predict", api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = i;"})
	}
	waitFor(t, "ejection", func() bool { return rt.reps[a.srv.URL].getState() == stateEjected })
	if rt.ejects.Value() == 0 {
		t.Fatal("eject counter not bumped")
	}

	// With the whole fleet ejected the router sheds and reports not ready.
	rec := postJSON(t, h, "/predict", api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = i;"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("predict with fleet ejected: %d, want 429", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with fleet ejected: %d, want 503", rr.Code)
	}

	// Recovery: the prober's backoff re-probe readmits it.
	a.failing.Store(false)
	waitFor(t, "readmission", func() bool { return rt.reps[a.srv.URL].getState() == stateHealthy })
	if rt.readmits.Value() == 0 {
		t.Fatal("readmit counter not bumped")
	}
	rec = postJSON(t, h, "/predict", api.PredictRequest{Code: "for (i = 0; i < n; i++) a[i] = i;"})
	if rec.Code != http.StatusOK {
		t.Fatalf("post-readmit predict: %d %s", rec.Code, rec.Body)
	}
}

func TestRouterSuggestReadThrough(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake", ModelID: "m1"}, a, b)
	h := rt.Handler()

	// A canonical-form snippet: round-trip through the parser first.
	canon, hash, ok := canonical("for (i = 0; i < n; i++) a[i] = i;")
	if !ok {
		t.Fatal("snippet did not canonicalize")
	}

	rec := postJSON(t, h, "/suggest", api.SuggestRequest{Code: canon})
	if rec.Code != http.StatusOK {
		t.Fatalf("suggest: %d %s", rec.Code, rec.Body)
	}
	cold := a.suggests.Load() + b.suggests.Load()
	if cold == 0 {
		t.Fatal("cold suggest did not forward")
	}
	if _, hit := rt.store.Get(hash); !hit {
		t.Fatal("canonical verdict not stored")
	}

	// Warm: the store answers, no new forward anywhere in the fleet.
	rec2 := postJSON(t, h, "/suggest", api.SuggestRequest{Code: canon})
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm suggest: %d %s", rec2.Code, rec2.Body)
	}
	if got := a.suggests.Load() + b.suggests.Load(); got != cold {
		t.Fatalf("warm suggest forwarded (%d -> %d)", cold, got)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatalf("warm result differs from cold:\n%s\n%s", rec.Body, rec2.Body)
	}
	if rt.storeHits.Value() == 0 {
		t.Fatal("store hit not counted")
	}

	// A formatting variant of the same loop is served from the canonical
	// verdict too (scan dedupe contract) — still no forward.
	variant := "for (i=0;i<n;i++)    a[i] = i;"
	rec3 := postJSON(t, h, "/suggest", api.SuggestRequest{Code: variant})
	if rec3.Code != http.StatusOK {
		t.Fatalf("variant suggest: %d %s", rec3.Code, rec3.Body)
	}
	if got := a.suggests.Load() + b.suggests.Load(); got != cold {
		t.Fatalf("variant suggest forwarded (%d -> %d)", cold, got)
	}

	// A request mixing a stored loop and a new one forwards only the new
	// one, and both answers come back in request order.
	fresh := "for (j = 0; j < m; j++)\n\tb[j] = 2 * j;\n"
	rec4 := postJSON(t, h, "/suggest", api.SuggestRequest{Codes: []string{fresh, canon}})
	var mixed api.SuggestResponse
	if err := json.Unmarshal(rec4.Body.Bytes(), &mixed); err != nil || len(mixed.Results) != 2 {
		t.Fatalf("mixed suggest: %v %s", err, rec4.Body)
	}
	if got := a.suggests.Load() + b.suggests.Load(); got != cold+1 {
		t.Fatalf("mixed suggest made %d forwards, want 1", got-cold)
	}
	for i, code := range []string{fresh, canon} {
		if want := fakeVerdict(code).Suggestion.Witness[0]; mixed.Results[i].Suggestion.Witness[0] != want {
			t.Fatalf("mixed result %d is %q, want %q", i, mixed.Results[i].Suggestion.Witness[0], want)
		}
	}
}

// loopOfStatements is a canonical-form loop whose parse cost grows with n.
func loopOfStatements(t *testing.T, n int) string {
	t.Helper()
	body := strings.Repeat(" a[i] = a[i] + b[i] * c[i];", n)
	snip, _, ok := canonical("for (i = 0; i < n; i++) {" + body + " }")
	if !ok {
		t.Fatal("loop did not canonicalize")
	}
	return snip
}

// TestRouterSuggestHitAllocs gates the warm path of answerSuggest: a
// request whose text is the stored canonical print is answered from its
// own hash. A parse would allocate per token, so the gate is that a
// 40-statement loop costs what a 1-statement loop costs, under a small
// ceiling; a formatting variant of the same loops must parse and still hit,
// through the canonical hash. Each item counts one hit however many probes
// it took. The last leg gates the whole handler on a stored canonical text.
func TestRouterSuggestHitAllocs(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake"}, a)
	ctx := context.Background()
	short, long := loopOfStatements(t, 1), loopOfStatements(t, 40)
	rt.answerSuggest(ctx, []string{short, long}) // cold: forwards and stores
	cold := a.suggests.Load()
	if cold == 0 || rt.store.Len() != 2 {
		t.Fatalf("set-up: %d forwards, %d verdicts resident", cold, rt.store.Len())
	}

	hits := rt.storeHits.Value()
	variant := strings.ReplaceAll(long, " = ", "=") // same loop, other spacing
	if variant == long {
		t.Fatal("variant is the canonical text")
	}
	res, _ := rt.answerSuggest(ctx, []string{variant})
	var answered api.SuggestResult
	if err := json.Unmarshal(res[0], &answered); err != nil {
		t.Fatal(err)
	}
	if got, want := answered.Suggestion.Witness[0], fakeVerdict(long).Suggestion.Witness[0]; got != want {
		t.Fatalf("formatting variant answered %q, want the canonical loop's %q", got, want)
	}
	if got := rt.storeHits.Value() - hits; got != 1 {
		t.Fatalf("formatting variant counted %d store hits, want 1", got)
	}
	if got := a.suggests.Load(); got != cold {
		t.Fatalf("formatting variant forwarded (%d -> %d)", cold, got)
	}

	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling = 2 // the results and the text's hash; 5 while the scratch was allocated up front
	allocs := func(code string) float64 {
		codes := []string{code}
		return testing.AllocsPerRun(20, func() { rt.answerSuggest(ctx, codes) })
	}
	atShort, atLong, atVariant := allocs(short), allocs(long), allocs(variant)
	t.Logf("allocations per warm answerSuggest: %.0f (1 statement), %.0f (40 statements), %.0f (40 statements, reformatted)",
		atShort, atLong, atVariant)
	if atShort != atLong || atLong > ceiling {
		t.Errorf("canonical-text hit allocates %.0f times for a short loop and %.0f for a long one, want equal and at most %d: it parsed",
			atShort, atLong, ceiling)
	}
	if atVariant <= atLong {
		t.Errorf("a reformatted request allocates %.0f times, a canonical one %.0f: the gate cannot tell a parse", atVariant, atLong)
	}
	if got := a.suggests.Load(); got != cold {
		t.Fatalf("warm requests forwarded (%d -> %d)", cold, got)
	}

	// The whole handler on the same canonical text: middleware, admission,
	// decode, store and respond. The request and recorder are reused, so
	// what is counted is the handler's own: the body limit, the decoded
	// request and its code, the results and the text's hash. It read 16
	// while json.Unmarshal decoded the body, WriteJSON re-encoded the
	// stored item, answerSuggest allocated its scratch up front, a lone
	// code got a slice of its own and the client key was canonicalized per
	// request.
	const handlerCeiling = 5
	quoted, _ := json.Marshal(long)
	reqBody := []byte(`{"code":` + string(quoted) + `}`)
	body := new(rewindBody)
	req := httptest.NewRequest(http.MethodPost, "/suggest", body)
	rec := httptest.NewRecorder()
	h := rt.Handler()
	atHandler := testing.AllocsPerRun(20, func() {
		body.Reset(reqBody)
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	stored, _ := json.Marshal(fakeVerdict(long))
	want := `{"results":[` + string(stored) + "]}\n"
	if rec.Code != http.StatusOK || rec.Body.String() != want {
		t.Fatalf("handler answered %d %s, want the stored verdict %s", rec.Code, rec.Body, want)
	}
	t.Logf("allocations per warm /suggest through the handler: %.0f", atHandler)
	if atHandler > handlerCeiling {
		t.Errorf("a warm /suggest through the handler allocates %.0f times, want at most %d", atHandler, handlerCeiling)
	}

	// A reload empties the store: the next identical request forwards again.
	rt.store.Roll()
	rt.answerSuggest(ctx, []string{long})
	if got := a.suggests.Load(); got != cold+1 {
		t.Fatalf("after a roll the same request made %d forwards, want 1", got-cold)
	}
}

func TestRouterSuggestNonCanonicalNotStored(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake"}, a)

	// Non-canonical formatting: forwarded, answered, but must NOT populate
	// the canonical verdict slot.
	variant := "for (i=0;i<n;i++)   b[i] = 2*i;"
	_, hash, ok := canonical(variant)
	if !ok {
		t.Fatal("variant did not canonicalize")
	}
	rec := postJSON(t, rt.Handler(), "/suggest", api.SuggestRequest{Code: variant})
	if rec.Code != http.StatusOK {
		t.Fatalf("suggest: %d %s", rec.Code, rec.Body)
	}
	if _, hit := rt.store.Get(hash); hit {
		t.Fatal("non-canonical request populated the canonical verdict slot")
	}
}

func TestRouterRollingReload(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake"}, a, b)
	h := rt.Handler()

	// Continuous traffic while the fleet rolls: no request may fail.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var failures atomic.Int64
	codes := testCodes(8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := postJSON(t, h, "/predict", api.PredictRequest{Code: codes[(w+i)%len(codes)]})
				if rec.Code != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}

	genBefore := rt.store.Gen()
	rec := postJSON(t, h, "/reload", nil)
	close(stop)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body)
	}
	var resp struct {
		Status   string `json:"status"`
		Replicas []struct {
			Replica    string `json:"replica"`
			Status     string `json:"status"`
			Generation uint64 `json:"generation"`
		} `json:"replicas"`
		StoreGeneration uint64 `json:"store_generation"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Status != "reloaded" {
		t.Fatalf("reload status %q: %s", resp.Status, rec.Body)
	}
	for _, r := range resp.Replicas {
		if r.Status != "reloaded" || r.Generation != 2 {
			t.Fatalf("replica outcome: %+v", r)
		}
	}
	if resp.StoreGeneration != genBefore+1 {
		t.Fatalf("store generation %d, want %d", resp.StoreGeneration, genBefore+1)
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d requests failed during the rolling reload", n)
	}
	if v := a.violations.Load() + b.violations.Load(); v != 0 {
		t.Fatalf("%d forwards reached a replica mid-reload", v)
	}
	// Both replicas are back in rotation.
	for _, rep := range rt.reps {
		if !rep.routable() {
			t.Fatalf("replica %s not readmitted after reload", rep.name)
		}
	}
}

func TestRouterReloadRotatesStoreGeneration(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake"}, a)
	h := rt.Handler()

	canon, _, _ := canonical("for (i = 0; i < n; i++) a[i] = i;")
	postJSON(t, h, "/suggest", api.SuggestRequest{Code: canon})
	cold := a.suggests.Load()
	if n, gen := storeGauges(t, rt); n != 1 || gen != 0 {
		t.Fatalf("before the reload: pf_store_len %v, store_generation %d, want 1 and 0", n, gen)
	}

	// After a rolling reload the old verdicts must not replay — they are
	// gone, not merely unreachable — and the next identical suggest
	// forwards again.
	if rec := postJSON(t, h, "/reload", nil); rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body)
	}
	if n, gen := storeGauges(t, rt); n != 0 || gen != 1 {
		t.Fatalf("after the reload: pf_store_len %v, store_generation %d, want 0 and 1", n, gen)
	}
	postJSON(t, h, "/suggest", api.SuggestRequest{Code: canon})
	if got := a.suggests.Load(); got != cold+1 {
		t.Fatalf("post-reload suggest did not re-forward (%d -> %d)", cold, got)
	}
}

// storeGauges reads the store's size off GET /metrics and its generation
// off GET /statz (pf_store_len, pf_store_generation).
func storeGauges(t *testing.T, rt *Router) (storeLen float64, gen uint64) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	storeLen = -1
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if v, ok := strings.CutPrefix(line, "pf_store_len "); ok {
			if _, err := fmt.Sscan(v, &storeLen); err != nil {
				t.Fatal(err)
			}
		}
	}
	if storeLen < 0 {
		t.Fatal("pf_store_len missing from /metrics")
	}
	if err := json.Unmarshal(statz(t, rt)["pf_store_generation"], &gen); err != nil {
		t.Fatalf("pf_store_generation: %v", err)
	}
	return storeLen, gen
}

// statz reads the router's GET /statz: one value per registry series.
func statz(t *testing.T, rt *Router) map[string]json.RawMessage {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/statz", nil))
	var st map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("statz %q: %v", rec.Body, err)
	}
	return st
}

// A verdict whose forward was out while the store rolled came from the
// superseded bundle: it answers the request that asked for it and is
// stored nowhere, on /suggest and on /scan alike.
func TestRouterDropsVerdictsThatStraddleARoll(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake"}, a)
	h := rt.Handler()
	roll := func() { rt.store.Roll() }

	canon, hash, _ := canonical("for (i = 0; i < n; i++) a[i] = i;")
	scanBody := api.ScanRequest{Files: []api.ScanFile{{Path: "x.c",
		Source: "void f(int *b, int n) { for (int j = 0; j < n; j++) b[j] = 2 * j; }\n"}}}
	for _, tc := range []struct {
		path string
		body any
	}{
		{"/suggest", api.SuggestRequest{Code: canon}},
		{"/scan", scanBody},
	} {
		a.midSuggest.Store(&roll)
		before := a.suggests.Load()
		if rec := postJSON(t, h, tc.path, tc.body); rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.path, rec.Code, rec.Body)
		}
		if got := a.suggests.Load(); got != before+1 {
			t.Fatalf("%s: %d forwards, want 1", tc.path, got-before)
		}
		if n := rt.store.Len(); n != 0 {
			t.Fatalf("%s: a verdict computed across the roll was stored (%d resident)", tc.path, n)
		}
		// With no roll in the way the same request forwards again — nothing
		// was stored for it — and this time its verdict is kept.
		a.midSuggest.Store(nil)
		if rec := postJSON(t, h, tc.path, tc.body); rec.Code != http.StatusOK {
			t.Fatalf("%s again: %d %s", tc.path, rec.Code, rec.Body)
		}
		if got := a.suggests.Load(); got != before+2 {
			t.Fatalf("%s: the repeat did not forward again", tc.path)
		}
		if n := rt.store.Len(); n != 1 {
			t.Fatalf("%s: %d verdicts resident after an undisturbed forward, want 1", tc.path, n)
		}
		rt.store.Roll()
	}
	if _, hit := rt.store.Get(hash); hit {
		t.Fatal("store not empty after the final roll")
	}
}

func TestRouterScanReadThroughParity(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake", ModelID: "m1"}, a, b)
	h := rt.Handler()

	src := `void f(int *a, int *b, int n) {
	for (int i = 0; i < n; i++)
		a[i] = i;
	for (int j = 0; j < n; j++)
		b[j] = 2 * j;
}
`
	body := api.ScanRequest{Files: []api.ScanFile{{Path: "x.c", Source: src}}, Stable: true}
	rec := postJSON(t, h, "/scan", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("scan: %d %s", rec.Code, rec.Body)
	}
	cold := a.suggests.Load() + b.suggests.Load()
	if cold == 0 {
		t.Fatal("cold scan did not forward")
	}

	// Parity oracle: the same sources through scan.Files directly with the
	// same verdict function must render byte-identical stable JSON.
	direct, err := scan.Files(context.Background(), []scan.Source{{Path: "x.c", Data: []byte(src)}},
		scan.Config{Workers: 2, Backend: "fake"}, oracleVerdicts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Stable().JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("tier scan diverges from direct scan:\n tier: %s\n direct: %s", rec.Body, want)
	}

	// Warm pass: the shared store answers every loop; zero new forwards
	// fleet-wide, byte-identical report.
	rec2 := postJSON(t, h, "/scan", body)
	if rec2.Code != http.StatusOK {
		t.Fatalf("warm scan: %d %s", rec2.Code, rec2.Body)
	}
	if got := a.suggests.Load() + b.suggests.Load(); got != cold {
		t.Fatalf("warm scan forwarded (%d -> %d)", cold, got)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Fatal("warm scan report differs from cold")
	}
}

// A /scan chunk's per-replica shares ride the same fan-out a /suggest's
// do: both replicas must be inside /suggest at the same moment. (They were
// once forwarded one after the other — a chunk cost the sum of its
// replicas' latencies, not the max.)
func TestTierScanForwardsConcurrently(t *testing.T) {
	a, b := newFakeReplica(t), newFakeReplica(t)
	h := newTestRouter(t, Config{Backend: "fake", ModelID: "m1"}, a, b).Handler()

	// Each replica's first /suggest waits for the other's to arrive.
	inA, inB := make(chan struct{}), make(chan struct{})
	var alone atomic.Int64
	meet := func(mine, other chan struct{}) *func() {
		var once sync.Once
		hook := func() {
			once.Do(func() { close(mine) })
			select {
			case <-other:
			case <-time.After(3 * time.Second):
				alone.Add(1)
			}
		}
		return &hook
	}
	a.midSuggest.Store(meet(inA, inB))
	b.midSuggest.Store(meet(inB, inA))

	// 16 distinct loops are one chunk; the ring splits them over both
	// replicas (all 16 on one side has probability 2^-15).
	var src strings.Builder
	src.WriteString("void f(int *a, int n) {\n")
	for k := 1; k <= 16; k++ {
		fmt.Fprintf(&src, "\tfor (int i = 0; i < n; i++)\n\t\ta[i] = %d * i;\n", k)
	}
	src.WriteString("}\n")
	rec := postJSON(t, h, "/scan", api.ScanRequest{Files: []api.ScanFile{{Path: "x.c", Source: src.String()}}})
	if rec.Code != http.StatusOK {
		t.Fatalf("scan: %d %s", rec.Code, rec.Body)
	}
	if a.suggests.Load() == 0 || b.suggests.Load() == 0 {
		t.Fatalf("chunk not split across the fleet (%d / %d forwards)", a.suggests.Load(), b.suggests.Load())
	}
	if n := alone.Load(); n != 0 {
		t.Fatalf("%d forwards sat in a replica without the other replica's share in flight", n)
	}
}

// oracleVerdicts drives scan.Files directly with the fake fleet's verdict
// function, through the same entry point the tier uses.
func oracleVerdicts(codes []string) []scan.Verdict {
	out := make([]scan.Verdict, len(codes))
	for i, c := range codes {
		out[i] = fakeVerdict(c)
	}
	return out
}

// The router is an untrusted-input boundary of its own: a malformed body
// is 400 and a body over the cap is 413 on every POST route, before any
// routing or forward.
func TestRouterRejects(t *testing.T) {
	a := newFakeReplica(t)
	h := newTestRouter(t, Config{}, a).Handler()

	oversized := `{"code": "` + strings.Repeat("x", api.MaxBodyBytes) + `"}`
	for _, path := range []string{"/predict", "/suggest", "/scan"} {
		for _, tc := range []struct {
			name, body string
			status     int
		}{
			{"malformed", `{"codes": [`, http.StatusBadRequest},
			{"oversized", oversized, http.StatusRequestEntityTooLarge},
		} {
			req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(tc.body))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Errorf("%s %s: status %d, want %d", path, tc.name, rec.Code, tc.status)
			}
		}
	}
	if n := a.predicts.Load() + a.suggests.Load(); n != 0 {
		t.Errorf("%d rejected requests reached a replica", n)
	}
}

// rewindBody is a request body a test reads again after Reset.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestRouterForwardAllocs gates the cold path of answerSuggest: one
// canonical snippet the store does not hold, forwarded to fakeReplica and
// stored on the way back. The count covers the whole process, the fake
// replica's handler included. It read 169 when the forward went through
// http.Client.Do and the reply was decoded into verdict structs and
// re-rendered, and 128 when each forward parsed its URL, marshalled a fresh
// request, asked for gzip and had json.Unmarshal read the reply. A template
// request, a pooled share request and the strict reply reader left 109
// (gated at 113); the gate is what is left once a one-item request's
// replica group and index live in its fan-out state (107).
func TestRouterForwardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const maxForwardAllocs = 107
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake", ProbeInterval: time.Hour}, a)
	ctx := context.Background()
	codes := []string{loopOfStatements(t, 4)}
	rt.answerSuggest(ctx, codes) // the connection is open and kept alive
	got := testing.AllocsPerRun(50, func() {
		rt.store.Roll()
		rt.answerSuggest(ctx, codes)
	})
	t.Logf("allocations per cold single-item answerSuggest: %.1f (was 128)", got)
	if got > maxForwardAllocs {
		t.Errorf("a cold answerSuggest allocates %.1f times, want at most %d", got, maxForwardAllocs)
	}
	if rt.store.Len() != 1 {
		t.Fatalf("%d verdicts resident after a cold answer, want 1", rt.store.Len())
	}
}

// TestStoredItemOwnsItsBytes: a verdict stored from a mixed reply keeps
// only its own bytes alive, not the reply's other items. One canonical loop
// rides in a batch with thousands of formatting variants, which are relayed
// but never stored; once the answers are dropped, the heap must hold about
// one verdict more than before, not the whole reply. The prober is held
// off: a /readyz answer between the two heap reads can put the fake's
// encode buffer for the whole reply back into encoding/json's pool.
func TestStoredItemOwnsItsBytes(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake", ProbeInterval: time.Hour}, a)
	ctx := context.Background()
	const variants = 4000
	codes := make([]string, 0, variants+1)
	for k := range variants {
		codes = append(codes, fmt.Sprintf("for (i=0; i<n; i++) a[i] = %d;", k))
	}
	snip, hash, _ := canonical("for (i = 0; i < n; i++) a[i] = b[i];")
	codes = append(codes, snip)
	rt.answerSuggest(ctx, codes[:1]) // opens the connection; a variant is not stored
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	replied := func() (n int64) {
		results, _ := rt.answerSuggest(ctx, codes)
		for _, r := range results {
			n += int64(len(r))
		}
		return n
	}()
	kept := heap() - before
	if _, ok := rt.store.Get(hash); !ok || rt.store.Len() != 1 {
		t.Fatalf("stored %d verdicts (the canonical one: %v), want the canonical one alone", rt.store.Len(), ok)
	}
	t.Logf("a %d-byte reply left %d bytes live", replied, kept)
	if kept > replied/8 {
		t.Errorf("storing one verdict of a %d-byte reply kept %d bytes live", replied, kept)
	}
}

// TestScanStoredVerdictOwnsItsMemory is the /scan twin of
// TestStoredItemOwnsItsBytes: a verdict the router's /scan stored keeps
// only its own memory alive, not the chunk of replies it was decoded with.
// One-loop files are scanned in chunks of 16 through the router's fan-out
// twice: once storing the first verdict of every chunk, once storing all
// sixteen. Once the reports are dropped, the first must hold about a
// sixteenth of what the second does, not nearly all of it.
func TestScanStoredVerdictOwnsItsMemory(t *testing.T) {
	const chunks, batch = 64, 16
	files := make([]scan.Source, chunks*batch)
	for k := range files {
		src := fmt.Sprintf("void f(int *a, int n) {\n\tfor (int i = 0; i < n; i++)\n\t\ta[i] = %d;\n}\n", k)
		files[k] = scan.Source{Path: fmt.Sprintf("f%d.c", k), Data: []byte(src)}
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties the pools' victim caches
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	kept := func(all bool) int64 {
		a := newFakeReplica(t)
		rt := newTestRouter(t, Config{Backend: "fake", ProbeInterval: time.Hour}, a)
		ctx := context.Background()
		rt.scanVerdicts(ctx, []string{"for (;;) ;"}) // opens the connection; stores nothing
		before := heap()
		func() {
			store := keepStore{pinnedStore: rt.pinStore(), keep: map[string]bool{}}
			cfg := scan.Config{Backend: "fake", BatchSize: batch, Store: store}
			_, err := scan.Files(ctx, files, cfg, func(codes []string) []scan.Verdict {
				for i, c := range codes {
					if all || i == 0 {
						store.keep[scan.HashSnippet(c)] = true
					}
				}
				return rt.scanVerdicts(ctx, codes)
			})
			if err != nil {
				t.Fatal(err)
			}
		}()
		live := heap() - before
		want := chunks
		if all {
			want *= batch
		}
		if rt.store.Len() != want {
			t.Fatalf("stored %d verdicts, want %d", rt.store.Len(), want)
		}
		return live
	}
	one, all := kept(false), kept(true)
	t.Logf("%d stored verdicts, one per %d-loop chunk, left %d bytes live; all %d left %d",
		chunks, batch, one, chunks*batch, all)
	if one > all/4 {
		t.Errorf("one verdict per chunk kept %d bytes live, a quarter or more of the %d all of them keep", one, all)
	}
}

// keepStore is the router's store under a /scan that writes back only the
// verdicts whose hashes keep holds.
type keepStore struct {
	pinnedStore
	keep map[string]bool
}

func (s keepStore) Put(hash string, sg *scan.Suggestion) {
	if s.keep[hash] {
		s.pinnedStore.Put(hash, sg)
	}
}

// TestSuggestRelaysReplicaBytes: a router /suggest result is the replica's
// bytes, whether it was just forwarded, stored by an earlier /suggest, or
// stored by the router's /scan (which stores the verdict in report form,
// so the bytes are rendered from that once). An error item is relayed too,
// and never stored. A /scan that reads what /suggest stored reports what a
// cold /scan does, and concurrent first use of one entry from both paths
// builds each of its forms once.
func TestSuggestRelaysReplicaBytes(t *testing.T) {
	a := newFakeReplica(t)
	rt := newTestRouter(t, Config{Backend: "fake"}, a)
	h := rt.Handler()
	replicaBytes := func(code string) json.RawMessage {
		t.Helper()
		return suggestResult(t, a.srv.Config.Handler, code)
	}
	forwards := func() uint64 { return rt.forwards.Value() }

	fresh, hash, _ := canonical("for (i = 0; i < n; i++) a[i] = i;")
	before := forwards()
	if got, want := suggestResult(t, h, fresh), replicaBytes(fresh); !bytes.Equal(got, want) {
		t.Errorf("fresh forward:\n got %s\nwant %s", got, want)
	}
	if forwards() != before+1 {
		t.Fatalf("the fresh /suggest made %d forwards, want 1", forwards()-before)
	}
	before = forwards()
	if got, want := suggestResult(t, h, fresh), replicaBytes(fresh); !bytes.Equal(got, want) {
		t.Errorf("hit stored by /suggest:\n got %s\nwant %s", got, want)
	}
	if forwards() != before {
		t.Fatal("the repeated /suggest forwarded")
	}

	// The router's /scan stores its loop's verdict in report form.
	scanned := scanReport(t, h, "void f(int *b, int n) { for (int j = 0; j < n; j++) b[j] = 2 * j; }\n")
	snip := scanned.Loops[0].Snippet
	v, ok := rt.store.Get(scan.HashSnippet(snip))
	if !ok || v.sug == nil || v.wire != nil {
		t.Fatalf("after /scan the entry is stored %v with struct %v and bytes %q, want the struct alone", ok, v != nil && v.sug != nil, v.wire)
	}
	before = forwards()
	if got, want := suggestResult(t, h, snip), replicaBytes(snip); !bytes.Equal(got, want) {
		t.Errorf("hit stored by /scan:\n got %s\nwant %s", got, want)
	}
	if forwards() != before {
		t.Fatal("the /suggest of a scanned loop forwarded")
	}

	failing, failHash, _ := canonical("for (i = 0; i < n; i++) fail[i] = i;")
	got, want := suggestResult(t, h, failing), replicaBytes(failing)
	if !bytes.Equal(got, want) || !isErrorItem(got) {
		t.Errorf("error item:\n got %s\nwant %s", got, want)
	}
	if _, stored := rt.store.Get(failHash); stored {
		t.Error("an error item was stored")
	}
	if _, ok := rt.store.Get(hash); !ok {
		t.Fatal("the fresh verdict is no longer stored")
	}

	// A /scan over loops /suggest stored reports what a cold /scan does.
	src := "void g(int *a, int *c, int n) {\n\tfor (int i = 0; i < n; i++)\n\t\ta[i] = i;\n\tfor (int k = 0; k < n; k++)\n\t\tc[k] = k + 1;\n}\n"
	cold := scanReport(t, newTestRouter(t, Config{Backend: "fake"}, a).Handler(), src)
	warm := newTestRouter(t, Config{Backend: "fake"}, a)
	for _, l := range cold.Loops {
		suggestResult(t, warm.Handler(), l.Snippet)
	}
	before = warm.forwards.Value()
	filled := scanReport(t, warm.Handler(), src)
	if warm.forwards.Value() != before || filled.Counters.CacheHits != len(cold.Loops) {
		t.Fatalf("the /scan after /suggest made %d forwards and %d store hits, want 0 and %d",
			warm.forwards.Value()-before, filled.Counters.CacheHits, len(cold.Loops))
	}
	if c, f := verdictsJSON(t, cold), verdictsJSON(t, filled); !bytes.Equal(c, f) {
		t.Errorf("/scan over /suggest-stored verdicts:\n got %s\nwant %s", f, c)
	}

	// Concurrent first use of a wire-first and a struct-first entry, from
	// /suggest (bytes) and /scan's store reads (struct) at once.
	concurrent := newTestRouter(t, Config{Backend: "fake"}, a)
	suggestResult(t, concurrent.Handler(), fresh)
	scanned = scanReport(t, concurrent.Handler(), "void f(int *b, int n) { for (int j = 0; j < n; j++) b[j] = 2 * j; }\n")
	for _, code := range []string{fresh, scanned.Loops[0].Snippet} {
		v, ok := concurrent.store.Get(scan.HashSnippet(code))
		if !ok {
			t.Fatalf("%q not stored", code)
		}
		const users = 8
		wires := make([]json.RawMessage, users)
		sugs := make([]*scan.Suggestion, users)
		var wg sync.WaitGroup
		for u := range users {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if u%2 == 0 {
					res, _ := concurrent.answerSuggest(context.Background(), []string{code})
					wires[u] = res[0]
				} else {
					sugs[u], _ = concurrent.pinStore().Get(scan.HashSnippet(code))
				}
			}()
		}
		wg.Wait()
		for u := range users {
			if u%2 == 0 && unsafe.SliceData(wires[u]) != unsafe.SliceData(v.wire) {
				t.Errorf("%q: a /suggest answered bytes other than the entry's: its wire form was built twice", code)
			}
			if u%2 == 1 && sugs[u] != v.sug {
				t.Errorf("%q: a store read returned a verdict other than the entry's: its report form was built twice", code)
			}
		}
		if want := replicaBytes(code); !bytes.Equal(v.wire, want) {
			t.Errorf("%q: entry bytes %s, want %s", code, v.wire, want)
		}
	}
}

// suggestResult posts one snippet to h's /suggest and returns its one
// result's bytes as sent.
func suggestResult(t *testing.T, h http.Handler, code string) json.RawMessage {
	t.Helper()
	rec := postJSON(t, h, "/suggest", api.SuggestRequest{Code: code})
	var resp api.Response[json.RawMessage]
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); rec.Code != http.StatusOK || err != nil || len(resp.Results) != 1 {
		t.Fatalf("/suggest %q: %d %s (%v)", code, rec.Code, rec.Body, err)
	}
	return resp.Results[0]
}

// scanReport posts one file to h's /scan and decodes the JSON report.
func scanReport(t *testing.T, h http.Handler, src string) scan.Report {
	t.Helper()
	rec := postJSON(t, h, "/scan", api.ScanRequest{Files: []api.ScanFile{{Path: "x.c", Source: src}}})
	var rep scan.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); rec.Code != http.StatusOK || err != nil || len(rep.Loops) == 0 {
		t.Fatalf("/scan: %d %s (%v)", rec.Code, rec.Body, err)
	}
	return rep
}

// verdictsJSON renders a report's loops, verdicts included, without what
// differs between a cold and a warm scan: the cache counters and marks.
func verdictsJSON(t *testing.T, rep scan.Report) []byte {
	t.Helper()
	for i := range rep.Loops {
		rep.Loops[i].FromCache = false
	}
	b, err := json.Marshal(rep.Loops)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
