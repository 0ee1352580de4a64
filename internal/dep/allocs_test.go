package dep_test

import (
	"cmp"
	"slices"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/corpus"
	"pragformer/internal/dep"
)

// sampleLoops is the fixed sample the allocation gate and the benchmark
// share: the target (first) loop of each record of a seed-1 corpus, with its
// function bodies.
type sampleLoop struct {
	loop  *cast.For
	funcs map[string]*cast.FuncDef
	lines int
}

func sampleLoops(tb testing.TB, n int) []sampleLoop {
	tb.Helper()
	c := corpus.Generate(corpus.Config{Seed: 1, Total: 600})
	var out []sampleLoop
	for _, r := range c.Records {
		u := parseUnit(tb, r.Code)
		if len(u.loops) == 0 {
			continue
		}
		out = append(out, sampleLoop{loop: u.loops[0], funcs: u.funcs, lines: r.Lines})
		if len(out) == n {
			break
		}
	}
	if len(out) < n {
		tb.Fatalf("sample has %d loops, want %d", len(out), n)
	}
	return out
}

func byLines(a, b sampleLoop) int { return cmp.Compare(a.lines, b.lines) }

// TestAnalyzeAllocs gates what one analysis allocates once its workspace is
// warm: the sample mean against the count measured while the loop header's
// affine forms kept their symbols in a map (one map per intermediate form
// of every bound), and the longest loop against a flat ceiling. Before that
// the mean was 14.1 (be4c77d), when the workspace did not yet keep its name
// tables, scalar table and nest headers, and before the engine had a
// workspace at all it was 337.7 and the longest loop 3875 (761ea3b),
// because the count grew with writes × accesses.
func TestAnalyzeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const (
		parentMean     = 8.1 // at fa35194 over this sample (longest loop: 20)
		longestCeiling = 18  // the longest loop reads 16
	)
	allocs := func(s sampleLoop) float64 {
		return testing.AllocsPerRun(5, func() { dep.AnalyzeLoop(s.loop, s.funcs).Convert() })
	}
	sample := sampleLoops(t, 500)
	total := 0.0
	for _, s := range sample {
		total += allocs(s)
	}
	mean, long := total/float64(len(sample)), allocs(slices.MaxFunc(sample, byLines))
	t.Logf("mean %.1f allocations per analysis (parent %.1f), longest loop %.0f", mean, parentMean, long)
	if mean > 0.75*parentMean {
		t.Errorf("mean allocations per analysis = %.1f, want at most 75%% of %.1f", mean, parentMean)
	}
	if long > longestCeiling {
		t.Errorf("longest sample loop allocates %.0f times, want at most %d", long, longestCeiling)
	}
}

// BenchmarkAnalyzeLoop measures one analysis on a short 2-deep loop, on the
// sample's median-length loop and on its longest, where the pair loop runs.
func BenchmarkAnalyzeLoop(b *testing.B) {
	sample := sampleLoops(b, 500)
	slices.SortStableFunc(sample, byLines)
	short := parseUnit(b, "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) { s = 0; s += A[i][j] * x[j]; y[i] = y[i] + s; } }")
	for _, c := range []struct {
		name string
		loop sampleLoop
	}{
		{"short", sampleLoop{loop: short.loops[0]}},
		{"median", sample[len(sample)/2]},
		{"long", sample[len(sample)-1]},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dep.AnalyzeLoop(c.loop.loop, c.loop.funcs).Convert()
			}
		})
	}
}
