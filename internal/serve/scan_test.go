package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/api"
	"pragformer/internal/scan"
)

const scanBody = `{"files": [
  {"path": "kernels.c", "source": "void f(double *x, double *y, int n) {\n    int i;\n    for (i = 0; i < n; i++) x[i] = y[i] * 2.0;\n    for (i = 0; i < n; i++) x[i] = y[i] * 2.0;\n}\n"},
  {"path": "broken.c", "source": "void g( {\n"}
]}`

func scanOnce(t *testing.T, e *Engine, body string) *httptest.ResponseRecorder {
	t.Helper()
	return postOnce(t, e, "/scan", body)
}

func postOnce(t *testing.T, e *Engine, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest("POST", path, strings.NewReader(body))
	w := httptest.NewRecorder()
	e.Handler().ServeHTTP(w, req)
	return w
}

// TestHTTPScan drives /scan end to end: multi-file payload in, deduped
// report out, with the inference riding the engine's suggest batcher.
func TestHTTPScan(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	w := scanOnce(t, e, scanBody)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var rep scan.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	c := rep.Counters
	if c.Files != 1 || c.Skipped != 1 {
		t.Errorf("files/skipped = %d/%d, want 1/1", c.Files, c.Skipped)
	}
	if c.Loops != 2 || c.Unique != 1 {
		t.Errorf("loops/unique = %d/%d, want 2/1 (identical loops must dedupe)", c.Loops, c.Unique)
	}
	if c.Inferred != 1 {
		t.Errorf("inferred = %d, want 1", c.Inferred)
	}
	if len(rep.Loops) != 1 || len(rep.Loops[0].Occurrences) != 2 {
		t.Fatalf("loops = %+v", rep.Loops)
	}
	occ := rep.Loops[0].Occurrences[0]
	if occ.File != "kernels.c" || occ.Line != 3 || occ.Function != "f" {
		t.Errorf("occurrence = %+v", occ)
	}
	if rep.Loops[0].Suggestion == nil {
		t.Error("loop missing suggestion")
	}
	if rep.Backend != e.Stats().Backend {
		t.Errorf("report backend %q != engine %q", rep.Backend, e.Stats().Backend)
	}

	// The scan's inference went through the suggest batcher, and a repeat
	// scan of the same payload is answered from the engine's LRU.
	st := e.Stats().Suggest
	if st.Requests == 0 || st.Batches == 0 {
		t.Errorf("scan bypassed the suggest batcher: %+v", st)
	}
	scanOnce(t, e, scanBody)
	if hits := e.Stats().Suggest.CacheHits; hits == 0 {
		t.Errorf("repeat scan produced no engine cache hits")
	}
}

// TestHTTPScanParity pins /scan suggestions to the direct engine suggest
// path for the same snippet.
func TestHTTPScanParity(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	w := scanOnce(t, e, scanBody)
	var rep scan.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	direct, err := e.Suggest(context.Background(), rep.Loops[0].Snippet)
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.Loops[0].Suggestion.Probability; got != direct.Probability {
		t.Errorf("scan probability %v != direct %v", got, direct.Probability)
	}

	// A client that still sends the retired "workers" field gets the same
	// report: the decode ignores it.
	old := scanOnce(t, e, strings.Replace(scanBody, `]}`, `], "workers": 3}`, 1))
	if old.Code != http.StatusOK || old.Body.String() != w.Body.String() {
		t.Errorf("with \"workers\": status %d, body\n%s\nwithout:\n%s", old.Code, old.Body, w.Body)
	}
}

// TestHTTPScanNeverReadsDisk: a posted file's bytes are its source, even
// when the source is empty and the path names a C file on the server's disk
// with loops in it — scan.Source reads Path only when Data is nil.
func TestHTTPScanNeverReadsDisk(t *testing.T) {
	path, err := filepath.Abs("../../examples/scantree/private.c")
	if err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || !strings.Contains(string(data), "for (") {
		t.Fatalf("fixture %s has no loop to leak (err %v)", path, err)
	}
	e, err := New(testModels(t), Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	body, _ := json.Marshal(api.ScanRequest{Files: []api.ScanFile{{Path: path, Source: ""}}})
	w := scanOnce(t, e, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var rep scan.Report
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Loops != 0 || len(rep.Loops) != 0 {
		t.Fatalf("an empty posted source scanned %d loops from the server's %s", rep.Counters.Loops, path)
	}
}

func TestHTTPScanSARIF(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	body := strings.Replace(scanBody, `]}`, `], "format": "sarif"}`, 1)
	w := scanOnce(t, e, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []json.RawMessage
	}
	if err := json.Unmarshal(w.Body.Bytes(), &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Errorf("sarif version %q runs %d", log.Version, len(log.Runs))
	}
}

func TestHTTPScanRejects(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// One byte over the body cap, whatever the route makes of the field.
	oversized := `{"code": "` + strings.Repeat("x", api.MaxBodyBytes) + `"}`
	for _, tc := range []struct {
		name, path, body string
		status           int
	}{
		{"malformed", "/scan", `{"files": [`, http.StatusBadRequest},
		{"empty", "/scan", `{"files": []}`, http.StatusBadRequest},
		{"no path", "/scan", `{"files": [{"source": "int x;"}]}`, http.StatusBadRequest},
		{"bad format", "/scan", `{"files": [{"path": "a.c", "source": ""}], "format": "xml"}`, http.StatusBadRequest},
		{"oversized scan", "/scan", oversized, http.StatusRequestEntityTooLarge},
		{"oversized predict", "/predict", oversized, http.StatusRequestEntityTooLarge},
		{"oversized suggest", "/suggest", oversized, http.StatusRequestEntityTooLarge},
	} {
		if w := postOnce(t, e, tc.path, tc.body); w.Code != tc.status {
			t.Errorf("%s: status %d, want %d", tc.name, w.Code, tc.status)
		}
	}

	var b strings.Builder
	b.WriteString(`{"files": [`)
	for i := 0; i < api.MaxScanFiles+1; i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(`{"path": "a.c", "source": ""}`)
	}
	b.WriteString(`]}`)
	if w := scanOnce(t, e, b.String()); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized file count: status %d", w.Code)
	}
}

// TestScanVerdictParityAcrossEntryPoints pins the corroboration evidence
// (tier, dep witness, S2S verdicts, LIME attributions) to a single source
// of truth: the advisor over the snippet's text. The same snippet scanned
// via HTTP /scan, via scan.Files over the models object's batch directly,
// via scan.Dir, and via a bare advisor batch must agree on every evidence
// field — and a warm-cache re-scan must replay the evidence
// byte-identically. The inputs are a carried dependence, and a loop whose
// file typedefs a type its snippet uses: the snippet alone does not parse,
// so no entry point may judge it by what its file's parse knew.
func TestScanVerdictParityAcrossEntryPoints(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, in := range []struct{ file, src string }{
		{"recur.c", "void f(double *s, int n) {\n    int i;\n    for (i = 1; i < n; i++) {\n        s[i] += s[i - 1];\n    }\n}\n"},
		{"typedef.c", "typedef double real; void f(real *a, real *b, int n) { for (int i = 0; i < n; i++) { real t = a[i]; b[i] = t * t; } }\n"},
	} {
		t.Run(in.file, func(t *testing.T) { scanParity(t, e, models, in.file, in.src) })
	}
}

// scanParity is TestScanVerdictParityAcrossEntryPoints over one file.
func scanParity(t *testing.T, e *Engine, models *advisor.Models, file, src string) {
	body, _ := json.Marshal(map[string]any{
		"files": []map[string]string{{"path": file, "source": src}},
	})
	w := scanOnce(t, e, string(body))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var httpRep scan.Report
	if err := json.Unmarshal(w.Body.Bytes(), &httpRep); err != nil {
		t.Fatal(err)
	}
	if len(httpRep.Loops) != 1 || httpRep.Loops[0].Suggestion == nil {
		t.Fatalf("http loops = %+v", httpRep.Loops)
	}

	direct, err := scan.Files(context.Background(),
		[]scan.Source{{Path: file, Data: []byte(src)}}, scan.Config{}, func(codes []string) []scan.Verdict {
			items, err := models.SuggestBatch(codes)
			if err != nil {
				t.Fatal(err)
			}
			verdicts := make([]scan.Verdict, len(items))
			for i, it := range items {
				if it.Err != nil {
					verdicts[i].Error = it.Err.Error()
					continue
				}
				verdicts[i].Suggestion = scan.FromAdvisor(it.Suggestion)
			}
			return verdicts
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct.Loops) != 1 || direct.Loops[0].Suggestion == nil {
		t.Fatalf("direct loops = %+v", direct.Loops)
	}

	asJSON := func(s *scan.Suggestion) string {
		t.Helper()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if asJSON(httpRep.Loops[0].Suggestion) != asJSON(direct.Loops[0].Suggestion) {
		t.Errorf("HTTP /scan verdict differs from direct scan.Files:\nhttp:   %s\ndirect: %s",
			asJSON(httpRep.Loops[0].Suggestion), asJSON(direct.Loops[0].Suggestion))
	}

	// The bare advisor batch over the deduped snippet is the reference.
	items, err := models.SuggestBatch([]string{direct.Loops[0].Snippet})
	if err != nil {
		t.Fatal(err)
	}
	adv := items[0].Suggestion
	got := direct.Loops[0].Suggestion
	if got.Tier != adv.Corroboration.Tier.String() {
		t.Errorf("scan tier %q != advisor tier %q", got.Tier, adv.Corroboration.Tier.String())
	}
	if len(got.Witness) != len(adv.Corroboration.DepWitness) {
		t.Errorf("scan witness %v != advisor %v", got.Witness, adv.Corroboration.DepWitness)
	}
	if len(got.S2S) != len(adv.Corroboration.S2S) {
		t.Errorf("scan s2s %v != advisor %v", got.S2S, adv.Corroboration.S2S)
	}
	if len(got.Attributions) != len(adv.Attributions) {
		t.Errorf("scan attributions %d != advisor %d", len(got.Attributions), len(adv.Attributions))
	}

	// Warm cache: the evidence must replay from disk bit-for-bit.
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, file), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := scan.Config{CachePath: filepath.Join(dir, "scan.cache"), Backend: "test", ModelID: "test"}
	cold, err := scan.Dir(context.Background(), dir, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := scan.Dir(context.Background(), dir, cfg, models)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Counters.CacheHits != 1 || warm.Counters.Inferred != 0 {
		t.Fatalf("warm counters = %+v", warm.Counters)
	}
	if asJSON(cold.Loops[0].Suggestion) != asJSON(warm.Loops[0].Suggestion) {
		t.Errorf("warm-cache verdict differs from cold:\ncold: %s\nwarm: %s",
			asJSON(cold.Loops[0].Suggestion), asJSON(warm.Loops[0].Suggestion))
	}
	if asJSON(cold.Loops[0].Suggestion) != asJSON(direct.Loops[0].Suggestion) {
		t.Errorf("scan.Dir verdict differs from scan.Files:\ndir:   %s\nfiles: %s",
			asJSON(cold.Loops[0].Suggestion), asJSON(direct.Loops[0].Suggestion))
	}
}
