package tier

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/serve"
	"pragformer/internal/tokenize"
)

// TestMetricsSeriesPinned pins what a fresh engine and a fresh router
// expose on GET /metrics — every family's HELP and TYPE line and every
// series' name and labels, values and histogram buckets stripped — against
// the lists recorded before the counters moved into the registry. A
// renamed series, a reworded help text or a dropped label fails here.
func TestMetricsSeriesPinned(t *testing.T) {
	v := tokenize.BuildVocab([][]string{{"for", "(", "i", "=", "0", ";", "<", "n", ")"}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 10, MaxLen: 16, D: 8, Heads: 2, Layers: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(&advisor.Models{Directive: m, Vocab: v, MaxLen: 16}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	// A fixed replica name (it labels two series) that is never probed.
	rt := newTestRouter(t, Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour})

	for name, h := range map[string]http.Handler{"engine": e.Handler(), "router": rt.Handler()} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		var lines []string
		for _, line := range strings.Split(strings.TrimSpace(rec.Body.String()), "\n") {
			if !strings.HasPrefix(line, "#") {
				if strings.Contains(line, `le="`) {
					continue
				}
				line = line[:strings.LastIndexByte(line, ' ')]
			}
			lines = append(lines, line)
		}
		sort.Strings(lines)
		got := strings.Join(lines, "\n") + "\n"
		path := filepath.Join("testdata", name+"_series.txt")
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s /metrics series drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
		}
	}
}
