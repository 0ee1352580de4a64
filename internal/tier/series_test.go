package tier

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/serve"
	"pragformer/internal/tokenize"
)

var update = flag.Bool("update", false, "rewrite testdata/*_series.txt and DESIGN.md's metric inventory from fresh registries")

// The generated block of DESIGN.md's "Observability" section.
const (
	inventoryBegin = "<!-- metrics:begin (generated: go test ./internal/tier -run TestMetricsSeriesPinned -update) -->\n"
	inventoryEnd   = "<!-- metrics:end -->"
)

// TestMetricsSeriesPinned pins what a fresh engine and a fresh router
// expose on GET /metrics — every family's HELP and TYPE line and every
// series' name and labels, values and histogram buckets stripped — against
// the lists recorded before the counters moved into the registry. A
// renamed series, a reworded help text or a dropped label fails here.
// Each binary's GET /statz must key exactly those series (a histogram's
// _sum and _count are one key), and DESIGN.md's metric inventory must be
// the table the same families render.
func TestMetricsSeriesPinned(t *testing.T) {
	v := tokenize.BuildVocab([][]string{{"for", "(", "i", "=", "0", ";", "<", "n", ")"}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 10, MaxLen: 16, D: 8, Heads: 2, Layers: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := serve.New(&advisor.Models{Directive: m, Vocab: v}, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	// A fixed replica name (it labels four series) that is never probed.
	rt := newTestRouter(t, Config{Replicas: []string{"http://127.0.0.1:1"}, ProbeInterval: time.Hour})

	var tables []string
	for _, side := range []struct {
		name, title string
		h           http.Handler
	}{
		{"engine", "Replica (`cmd/serve`)", e.Handler()},
		{"router", "Router (`cmd/router`)", rt.Handler()},
	} {
		get := func(path string) []byte {
			rec := httptest.NewRecorder()
			side.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			return rec.Body.Bytes()
		}
		exp := parseExposition(string(get("/metrics")))

		got := strings.Join(exp.lines, "\n") + "\n"
		path := filepath.Join("testdata", side.name+"_series.txt")
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if want, err := os.ReadFile(path); err != nil {
			t.Fatal(err)
		} else if got != string(want) {
			t.Errorf("%s /metrics series drifted from %s:\n--- got ---\n%s--- want ---\n%s", side.name, path, got, want)
		}

		var st map[string]json.RawMessage
		if err := json.Unmarshal(get("/statz"), &st); err != nil {
			t.Fatal(err)
		}
		keys := make([]string, 0, len(st))
		for k := range st {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !slices.Equal(keys, exp.series) {
			t.Errorf("%s /statz keys differ from its /metrics series:\n statz: %q\nmetrics: %q", side.name, keys, exp.series)
		}
		tables = append(tables, exp.table(side.title))
	}

	path := filepath.Join("..", "..", "DESIGN.md")
	doc, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok1 := strings.Cut(string(doc), inventoryBegin)
	block, after, ok2 := strings.Cut(rest, inventoryEnd)
	if !ok1 || !ok2 {
		t.Fatalf("%s has no %q ... %q block", path, inventoryBegin, inventoryEnd)
	}
	got := strings.Join(tables, "\n") + "\n"
	if *update {
		if err := os.WriteFile(path, []byte(before+inventoryBegin+got+inventoryEnd+after), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if got != block {
		t.Errorf("DESIGN.md's metric inventory differs from the registries (rerun with -update):\n--- got ---\n%s--- want ---\n%s", got, block)
	}
}

// exposition is one /metrics body, parsed.
type exposition struct {
	lines  []string // HELP and TYPE lines and series, values and buckets stripped, sorted
	series []string // series as /statz keys them: a histogram's _sum and _count folded, sorted
	help   map[string]string
	typ    map[string]string
	labels map[string][]string // label keys per family, sorted
}

var labelKey = regexp.MustCompile(`(\w+)="`)

func parseExposition(text string) exposition {
	exp := exposition{help: map[string]string{}, typ: map[string]string{}, labels: map[string][]string{}}
	var samples []string
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if h, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(h, " ")
			exp.help[name] = help
		} else if ty, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(ty, " ")
			exp.typ[name] = typ
		} else if strings.Contains(line, `le="`) {
			continue
		} else {
			line = line[:strings.LastIndexByte(line, ' ')]
			samples = append(samples, line)
		}
		exp.lines = append(exp.lines, line)
	}
	sort.Strings(exp.lines)

	seen := map[string]bool{}
	for _, s := range samples {
		name, labels, _ := strings.Cut(s, "{")
		for _, suffix := range []string{"_sum", "_count"} {
			if fam, ok := strings.CutSuffix(name, suffix); ok && exp.typ[fam] == "histogram" {
				name = fam
			}
		}
		key := name
		if labels != "" {
			key += "{" + labels
		}
		if !seen[key] {
			seen[key] = true
			exp.series = append(exp.series, key)
		}
		for _, m := range labelKey.FindAllStringSubmatch(labels, -1) {
			if !slices.Contains(exp.labels[name], m[1]) {
				exp.labels[name] = append(exp.labels[name], m[1])
				sort.Strings(exp.labels[name])
			}
		}
	}
	sort.Strings(exp.series)
	return exp
}

// table renders the families as DESIGN.md lists them.
func (exp exposition) table(title string) string {
	names := make([]string, 0, len(exp.typ))
	for name := range exp.typ {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n\n| family | type | labels | help |\n|---|---|---|---|\n", title)
	for _, name := range names {
		labels := "—"
		if ls := exp.labels[name]; len(ls) > 0 {
			labels = "`" + strings.Join(ls, "`, `") + "`"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", name, exp.typ[name], labels, exp.help[name])
	}
	return b.String()
}
