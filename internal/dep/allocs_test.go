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

// TestAcceptedReasonsShared: an analysis nothing refuted and nothing else
// explained carries the one shared "no loop-carried dependences detected"
// Reasons, len == cap == 1, so accepting costs no allocation, and an append
// to it copies, leaving every other analysis' Reasons as they were. A
// converted analysis that explains its rescue keeps reasons of its own.
func TestAcceptedReasonsShared(t *testing.T) {
	const accepted = "no loop-carried dependences detected"
	analyze := func(code string) *dep.Analysis {
		u := parseUnit(t, code)
		return dep.AnalyzeLoop(u.loops[0], u.funcs)
	}
	a := analyze("for (i = 0; i < n; i++) a[i] = b[i];")
	b := analyze("for (j = 1; j < m; j++) { t = d[j]; c[j] = t * t; }")
	for _, x := range []*dep.Analysis{a, b, a.Convert()} {
		if !x.Parallelizable || len(x.Reasons) != 1 || cap(x.Reasons) != 1 || x.Reasons[0] != accepted {
			t.Fatalf("accepted analysis Reasons %q (cap %d), want [%q] at cap 1", x.Reasons, cap(x.Reasons), accepted)
		}
	}
	if &a.Reasons[0] != &b.Reasons[0] {
		t.Error("two accepted analyses hold Reasons of their own, want one shared slice")
	}
	grown := append(a.Reasons, "appended")
	if &grown[0] == &a.Reasons[0] || len(a.Reasons) != 1 || len(b.Reasons) != 1 || b.Reasons[0] != accepted {
		t.Errorf("an append to the shared Reasons wrote through: now %q and %q", a.Reasons, b.Reasons)
	}

	c := analyze("for (i = 0; i < n; i++) { tmp[0] = a[i]; b[i] = tmp[0]; }").Convert()
	if !c.Parallelizable || len(c.Reasons) < 2 || c.Reasons[len(c.Reasons)-1] != accepted {
		t.Fatalf("converted Reasons %q, want the rescue then %q", c.Reasons, accepted)
	}
}
