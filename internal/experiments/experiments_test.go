package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
)

// sharedPipeline trains models once for the whole test package; experiments
// are read-only over its caches.
var (
	pipeOnce sync.Once
	pipe     *Pipeline
)

func testPipeline(t *testing.T) *Pipeline {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment pipeline is slow")
	}
	pipeOnce.Do(func() {
		pipe = NewPipeline(Config{Mode: Fast, Seed: 2})
	})
	return pipe
}

func TestTable3Shape(t *testing.T) {
	p := testPipeline(t)
	s := p.RunTable3().Stats
	if s.Total != p.P.CorpusTotal {
		t.Fatalf("total = %d", s.Total)
	}
	frac := float64(s.WithDirective) / float64(s.Total)
	if frac < 0.42 || frac > 0.48 {
		t.Errorf("directive fraction = %.3f, want ≈ 0.4485", frac)
	}
	if s.ScheduleDynamic >= s.Reduction || s.Reduction >= s.Private {
		t.Errorf("clause ordering violated: dyn %d < red %d < priv %d expected",
			s.ScheduleDynamic, s.Reduction, s.Private)
	}
}

func TestTable4Shape(t *testing.T) {
	p := testPipeline(t)
	h := p.RunTable4().Histogram
	if !(h[0] > h[1] && h[1] > h[2]) {
		t.Errorf("length histogram not decreasing: %v", h)
	}
}

func TestFigure3Sums(t *testing.T) {
	p := testPipeline(t)
	total := 0.0
	for _, f := range p.RunFigure3().Dist {
		total += f
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("domain fractions sum to %f", total)
	}
}

func TestTable5Consistent(t *testing.T) {
	p := testPipeline(t)
	tb := p.RunTable5()
	if tb.DirTrain+tb.DirValid+tb.DirTest != p.P.CorpusTotal {
		t.Errorf("directive sizes %d+%d+%d != %d", tb.DirTrain, tb.DirValid, tb.DirTest, p.P.CorpusTotal)
	}
	if tb.ClauseTrain <= tb.ClauseValid {
		t.Error("clause train should dominate")
	}
}

func TestTable6MatchesPaper(t *testing.T) {
	p := testPipeline(t)
	rows := p.RunTable6().Rows
	if !strings.Contains(rows[tokenize.RText], "var0") {
		t.Errorf("replaced text row = %q", rows[tokenize.RText])
	}
	if !strings.HasPrefix(rows[tokenize.AST], "For:") {
		t.Errorf("AST row = %q", rows[tokenize.AST])
	}
}

func TestTable7Shape(t *testing.T) {
	p := testPipeline(t)
	st := p.RunTable7().Stats
	if st[tokenize.Text].TrainVocab <= st[tokenize.RText].TrainVocab {
		t.Errorf("Text vocab %d should exceed R-Text %d",
			st[tokenize.Text].TrainVocab, st[tokenize.RText].TrainVocab)
	}
	if st[tokenize.AST].AvgLength <= st[tokenize.Text].AvgLength {
		t.Errorf("AST length %.1f should exceed Text %.1f",
			st[tokenize.AST].AvgLength, st[tokenize.Text].AvgLength)
	}
	for repr, s := range st {
		if s.OOVTypes < 0 || s.TrainVocab == 0 {
			t.Errorf("%v: degenerate stats %+v", repr, s)
		}
	}
}

// TestTable8PaperOrdering is the headline reproduction check: PragFormer
// beats the BoW baseline, which beats ComPar, on directive classification.
func TestTable8PaperOrdering(t *testing.T) {
	p := testPipeline(t)
	tb := p.RunTable8()
	get := func(name string) float64 {
		for _, r := range tb.Rows {
			if strings.HasPrefix(r.Name, name) {
				return r.Report.Accuracy
			}
		}
		t.Fatalf("row %q missing", name)
		return 0
	}
	prag, bw, cp := get("PragFormer"), get("BoW"), get("ComPar")
	if !(prag > bw) {
		t.Errorf("PragFormer %.3f should beat BoW %.3f (Table 8)", prag, bw)
	}
	if !(prag > cp) {
		t.Errorf("PragFormer %.3f should beat ComPar %.3f (Table 8)", prag, cp)
	}
	if prag < 0.7 {
		t.Errorf("PragFormer accuracy %.3f unexpectedly low", prag)
	}
	if tb.ComParFailed == 0 {
		t.Error("ComPar should fail on some snippets (paper: 221/1,274)")
	}
	frac := float64(tb.ComParFailed) / float64(tb.TestSize)
	if frac < 0.05 || frac > 0.35 {
		t.Errorf("ComPar failure rate %.2f far from the paper's ≈0.17", frac)
	}
}

func TestTable9PrivateOrdering(t *testing.T) {
	p := testPipeline(t)
	tb := p.RunTable9()
	prag := tb.Rows[0].Report
	cp := tb.Rows[2].Report
	if prag.Accuracy <= cp.Accuracy {
		t.Errorf("PragFormer %.3f should beat ComPar %.3f on private task", prag.Accuracy, cp.Accuracy)
	}
	if prag.Accuracy < 0.7 {
		t.Errorf("private accuracy %.3f too low", prag.Accuracy)
	}
}

func TestTable10ReductionOrdering(t *testing.T) {
	p := testPipeline(t)
	tb := p.RunTable10()
	prag := tb.Rows[0].Report
	if prag.Accuracy < 0.65 {
		t.Errorf("reduction accuracy %.3f too low", prag.Accuracy)
	}
}

func TestFigures456Curves(t *testing.T) {
	p := testPipeline(t)
	rc := p.RunFigures456()
	if len(rc.Histories) != 4 {
		t.Fatalf("histories = %d", len(rc.Histories))
	}
	acc := rc.FinalAccuracy()
	// The paper's headline representation finding: raw text beats the AST
	// serialization.
	if acc[tokenize.Text] < acc[tokenize.AST] {
		t.Errorf("Text %.3f should beat AST %.3f (Figure 4)", acc[tokenize.Text], acc[tokenize.AST])
	}
	for repr, h := range rc.Histories {
		if len(h.Epochs) != p.P.Epochs {
			t.Errorf("%v: %d epochs", repr, len(h.Epochs))
		}
		// Training loss must decrease overall (Figure 5 shape).
		first, last := h.Epochs[0].TrainLoss, h.Epochs[len(h.Epochs)-1].TrainLoss
		if last >= first {
			t.Errorf("%v: train loss %f → %f did not fall", repr, first, last)
		}
	}
}

func TestFigure7Buckets(t *testing.T) {
	p := testPipeline(t)
	f := p.RunFigure7()
	total := 0
	for _, b := range f.Buckets {
		total += b.Count
		if b.Errors > b.Count {
			t.Fatalf("bucket errors %d > count %d", b.Errors, b.Count)
		}
	}
	_, _, te := p.DirectiveSplit().Sizes()
	if total != te {
		t.Errorf("bucket counts sum to %d, want %d", total, te)
	}
}

func TestTable11HeldOut(t *testing.T) {
	p := testPipeline(t)
	tb := p.RunTable11()
	if len(tb.Rows) != 4 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Shape: PragFormer must beat ComPar on PolyBench, where ComPar's
	// frontend collapses on unexpanded macros (paper: 0.93 vs 0.43).
	if tb.Rows[0].Report.Accuracy <= tb.Rows[1].Report.Accuracy {
		t.Errorf("PragFormer Poly %.3f should beat ComPar Poly %.3f",
			tb.Rows[0].Report.Accuracy, tb.Rows[1].Report.Accuracy)
	}
	if tb.PolyParseFailures == 0 || tb.SPECParseFailures == 0 {
		t.Error("expected ComPar parse failures on held-out suites")
	}
}

func TestTable12Examples(t *testing.T) {
	p := testPipeline(t)
	exs := p.RunTable12Figure8()
	if len(exs) != 4 {
		t.Fatalf("examples = %d", len(exs))
	}
	for _, ex := range exs {
		if len(ex.Top) == 0 {
			t.Errorf("%s: no LIME attributions", ex.Name)
		}
		if ex.Prob < 0 || ex.Prob > 1 {
			t.Errorf("%s: p = %f", ex.Name, ex.Prob)
		}
	}
	// Example 2 (stderr dump) must be predicted negative: the fprintf
	// pattern is the paper's clearest qualitative case.
	if exs[1].Predicted {
		t.Errorf("stderr dump predicted positive (p=%.2f)", exs[1].Prob)
	}
}

// TestFigure8Pinned holds the Table 12 / Figure 8 study to the bits it had
// while LIME asked the training forward about one perturbation at a time:
// each example's probability, and a digest of every attribution (position,
// token, weight bits), recorded at that commit with and without -tags
// purego. One batched forward over all perturbations changes none of them.
func TestFigure8Pinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("recorded on amd64; other compilers may fuse multiply-adds")
	}
	p := testPipeline(t)
	wantProbs := []string{"0x1.a0a2d26fa5c49p-04", "0x1.cee445497564bp-05", "0x1.d79b22b927864p-06", "0x1.a4baff348b6afp-05"}
	const wantAttrs = "1e1322ece837f2eccc060824e047a8e0bcea717c95baa268e9408b39696f7870"
	exs := p.RunTable12Figure8()
	if len(exs) != len(wantProbs) {
		t.Fatalf("examples = %d, want %d", len(exs), len(wantProbs))
	}
	h := sha256.New()
	var b [8]byte
	for i, ex := range exs {
		if got := strconv.FormatFloat(ex.Prob, 'x', -1, 64); got != wantProbs[i] {
			t.Errorf("%s: p = %s, pinned %s", ex.Name, got, wantProbs[i])
		}
		for _, a := range ex.Top {
			fmt.Fprintf(h, "%d %s ", a.Index, a.Token)
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(a.Weight))
			h.Write(b[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantAttrs {
		t.Errorf("attribution digest %s, pinned %s", got, wantAttrs)
	}
}

func TestRunAllNames(t *testing.T) {
	p := testPipeline(t)
	var buf bytes.Buffer
	// Cheap experiments only; model-heavy ones are covered above.
	for _, name := range []string{"table3", "table4", "figure3", "table5", "table6", "table7"} {
		if err := p.Run(name, &buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := p.Run("nonsense", &buf); err == nil {
		t.Fatal("expected error for unknown experiment")
	}
	out := buf.String()
	for _, want := range []string{"Table 3", "Table 4", "Figure 3", "Table 5", "Table 6", "Table 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestInstancesOf(t *testing.T) {
	p := testPipeline(t)
	pb := p.PolyBench()
	ins := InstancesOf(pb, dataset.TaskDirective)
	if len(ins) != len(pb.Records) {
		t.Fatalf("instances = %d", len(ins))
	}
	npos := 0
	for _, in := range ins {
		if in.Label {
			npos++
		}
	}
	if npos != len(pb.Positives()) {
		t.Errorf("positive labels = %d want %d", npos, len(pb.Positives()))
	}
}

func TestParamsFor(t *testing.T) {
	fast, full := ParamsFor(Fast), ParamsFor(Full)
	if fast.CorpusTotal >= full.CorpusTotal {
		t.Error("fast corpus should be smaller")
	}
	if fast.D > full.D || fast.Epochs > full.Epochs {
		t.Error("fast model should be no larger")
	}
}
