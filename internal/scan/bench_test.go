package scan

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/tokenize"
)

// benchTree writes a synthetic source tree: files of elementwise, reduction
// and nested kernels with per-file unique identifiers, so dedupe work is
// realistic (some shared loops, mostly distinct).
func benchTree(tb testing.TB, files int) string {
	tb.Helper()
	root := tb.TempDir()
	for f := 0; f < files; f++ {
		src := fmt.Sprintf(`void kernel%[1]d(double *a, double *b, int n) {
    int i, j;
    for (i = 0; i < n; i++) {
        a[i] = b[i] * %[1]d.0 + a[i];
    }
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            a[i * n + j] += b[j] * c%[1]d[i];
        }
    }
}
double sum%[1]d(double *v, int n) {
    int i;
    double s = 0.0;
    for (i = 0; i < n; i++) {
        s += v[i];
    }
    return s;
}
void shared_scale(double *x, int n) {
    int i;
    for (i = 0; i < n; i++) {
        x[i] = x[i] * 2.0;
    }
}
`, f)
		dir := root
		if f%4 == 0 {
			dir = filepath.Join(root, fmt.Sprintf("sub%d", f/4))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				tb.Fatal(err)
			}
		}
		path := filepath.Join(dir, fmt.Sprintf("kernel%d.c", f))
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			tb.Fatal(err)
		}
	}
	return root
}

func benchModels(tb testing.TB) *advisor.Models {
	tb.Helper()
	v := tokenize.BuildVocab([][]string{{
		"for", "(", ";", ")", "{", "}", "[", "]", "=", "+", "*", "+=", "++", "<",
		"i", "j", "n", "a", "b", "c", "v", "s", "x", "0", "0.0", "2.0",
	}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 64, MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 7)
	if err != nil {
		tb.Fatal(err)
	}
	// NoExplain: the bench measures the scan pipeline (walk, parse, dedupe,
	// batch inference and corroboration), not LIME — an untrained model's
	// arbitrary disagreements would otherwise swamp the metric with
	// perturbation forwards.
	return &advisor.Models{Directive: m, Vocab: v, NoExplain: true}
}

// BenchmarkScanThroughput measures the full pipeline — walk, parse,
// extract, dedupe, batched inference — over a 32-file synthetic tree with
// a real (untrained) directive classifier. Reported loops/s is the
// end-to-end scan rate, for measuring while working; the number of record
// is the harness's items_per_s on scan_cold (`bash bench/run.sh`).
func BenchmarkScanThroughput(b *testing.B) {
	root := benchTree(b, 32)
	models := benchModels(b)
	cfg := Config{Workers: 4, BatchSize: 16}
	b.ReportAllocs()
	b.ResetTimer()
	var loops int
	for i := 0; i < b.N; i++ {
		rep, err := Dir(context.Background(), root, cfg, models)
		if err != nil {
			b.Fatal(err)
		}
		loops = rep.Counters.Loops
	}
	b.ReportMetric(float64(loops)*float64(b.N)/b.Elapsed().Seconds(), "loops/s")
}

// BenchmarkScanWarmCache is the incremental path: every loop answered from
// the persistent hash cache, zero model forwards.
func BenchmarkScanWarmCache(b *testing.B) {
	root := benchTree(b, 32)
	models := benchModels(b)
	cfg := Config{Workers: 4, BatchSize: 16, CachePath: filepath.Join(b.TempDir(), "scan.cache")}
	if _, err := Dir(context.Background(), root, cfg, models); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Dir(context.Background(), root, cfg, models)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Counters.Inferred != 0 {
			b.Fatalf("warm scan inferred %d", rep.Counters.Inferred)
		}
	}
}
