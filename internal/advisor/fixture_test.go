package advisor

import (
	"crypto/sha256"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/cparse"
)

// fixtureSnippets returns the unique loops of examples/scantree as the
// scanner hands them over: canonical prints, in WalkDir's (lexical) file
// order and source order.
func fixtureSnippets(t *testing.T) []string {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(filepath.Join("..", "..", "examples", "scantree"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".c") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	seen := map[string]bool{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f, _ := cparse.ParseRecover(string(data))
		for _, li := range cast.ExtractLoops(f) {
			if code := cast.Print(li.Loop); !seen[code] {
				seen[code] = true
				out = append(out, code)
			}
		}
	}
	if len(out) != 16 {
		t.Fatalf("fixture tree holds %d unique loops, want 16", len(out))
	}
	return out
}

// TestSuggestBytesBudget gates what one advised loop allocates in bytes, on
// the scanner's call shape: one SuggestBatchStaged batch of the fixture's 16
// loops as text, the real S2S trio behind a classifier that likes every
// loop — so tokenisation, the unit's parse, dependence evidence, three
// member verdicts and the LIME of every refuted loop are all in the figure,
// and no model forward is. While every loop materialised its tokens, their
// strings and the S2S unit's own copy, the batch read 11.1 KB per loop
// (11.6 when a collection emptied the pools mid-measure); with ids streamed
// from the text and the unit's buffer borrowed it read 6.3 (6.7). With the
// evidence taken from the analysis uncopied, the members' annotated sources
// rendered only on demand and LIME's label buffers pooled it reads 4.4
// (4.5), against a budget of 5.2 KB. With the unit, the ids and the
// suggestions borrowed or carved it read 2.2 to 2.9 KB: ten runs gave 2239
// to 2840 bytes, against a budget of 3,550. With LIME reading the unit's
// tokens, ten runs gave 2268 to 2694 bytes. With witness positions anchored
// without a rendering, the unit's analysis held in the unit and directives
// sharing the analysis' clauses from one slab per batch, twenty-five runs
// give 1548 to 2128 bytes, and the budget is the highest of them plus 25 %.
// The unit's parse goes back to the parser pool after the loop's advice and
// costs next to nothing.
func TestSuggestBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes are not meaningful under the race detector")
	}
	m := stubModels(t, nil)
	codes := fixtureSnippets(t)
	perLoop := bytesPerLoop(t, len(codes), func() ([]BatchItem, error) { return m.SuggestBatchStaged(codes, nil) })
	t.Logf("%.0f bytes per advised loop", perLoop)
	const budget = 2660
	if perLoop > budget {
		t.Errorf("%.0f bytes per advised loop, budget %d", perLoop, budget)
	}
}

// TestSuggestBatchAllocs gates what one advised loop allocates in objects,
// on TestSuggestBytesBudget's call shape: every fixture loop is positive, so
// all three S2S members run on each. It read 24.3 per loop while the members
// built directives and reason lists only to flatten them away, each unit and
// each suggestion was an allocation of its own, and the batch's ids were
// fresh; with member verdicts written straight into the kept slice, a pooled
// unit, one suggestion slab and borrowed ids it read 16.25. With witness
// positions anchored without a rendering, the unit's analysis held in the
// unit, directives sharing the analysis' clauses from one slab per batch and
// a bare directive printed as a constant it read 11.31. With the batch's
// probabilities and every LIME chunk's labels written into the caller's
// scratch (the stub classifier's too), constant and once-built S2S
// rejections, and LIME's solution and token texts in pooled scratch it
// reads 8.75. The gate is that plus 10 %.
func TestSuggestBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	m := stubModels(t, nil)
	codes := fixtureSnippets(t)
	if _, err := m.SuggestBatchStaged(codes, nil); err != nil { // pools warm
		t.Fatal(err)
	}
	perLoop := testing.AllocsPerRun(50, func() {
		if _, err := m.SuggestBatchStaged(codes, nil); err != nil {
			t.Fatal(err)
		}
	}) / float64(len(codes))
	t.Logf("%.2f allocations per advised loop", perLoop)
	const budget = 9.6
	if perLoop > budget {
		t.Errorf("%.2f allocations per advised loop, budget %.1f", perLoop, budget)
	}
}

// bytesPerLoop is what one loop of a batch of n costs in bytes, over 20
// rounds of advise after one to warm the pools; advise must answer every
// loop.
func bytesPerLoop(t *testing.T, n int, advise func() ([]BatchItem, error)) float64 {
	t.Helper()
	run := func() {
		items, err := advise()
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("loop %d: %v", i, it.Err)
			}
		}
	}
	run() // pools warm
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(rounds*n)
}

// TestDisagreementAttributionsPinned holds the LIME attributions of the
// fixture's disagreeing loops (the scan report's PF1003 results) to the
// values the advisor produced while it still handed LIME the token strings
// of the batch's one up-front Extract: the explanation now reads the tokens
// of the loop's S2S unit, on the disagreement alone, and must read the same.
func TestDisagreementAttributionsPinned(t *testing.T) {
	// Loop (its place in fixtureSnippets) -> attribution count and the sha-256
	// of every (index, token, weight bits) triple in order.
	want := map[int]string{2: "64 357d920fefca0a95", 12: "27 789b3eff684c944d"}
	m := models(t)
	items, err := m.SuggestBatch(fixtureSnippets(t))
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]string{}
	for i, it := range items {
		if it.Err != nil {
			t.Fatal(it.Err)
		}
		if it.Suggestion.Corroboration.Tier != TierDisagree {
			continue
		}
		h := sha256.New()
		for _, a := range it.Suggestion.Attributions {
			fmt.Fprintf(h, "%d %q %x\n", a.Index, a.Token, math.Float64bits(a.Weight))
		}
		got[i] = fmt.Sprintf("%d %x", len(it.Suggestion.Attributions), h.Sum(nil)[:8])
	}
	if !maps.Equal(got, want) {
		t.Errorf("disagreement attributions moved:\ngot  %v\nwant %v", got, want)
	}
}
