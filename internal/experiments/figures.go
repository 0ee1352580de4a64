package experiments

import (
	"fmt"
	"io"
	"math"
	"strings"

	"pragformer/internal/dataset"
	"pragformer/internal/lime"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// RepresentationCurves carries the Figures 4–6 learning curves: one
// training run of the directive task per code representation.
type RepresentationCurves struct {
	Histories map[tokenize.Representation]train.History
}

// RunFigures456 trains the directive model under each representation and
// returns the accuracy/loss curves.
func (p *Pipeline) RunFigures456() RepresentationCurves {
	out := RepresentationCurves{Histories: map[tokenize.Representation]train.History{}}
	for _, repr := range tokenize.Representations {
		out.Histories[repr] = p.Model(dataset.TaskDirective, repr).History
	}
	return out
}

// FinalAccuracy returns the best-epoch validation accuracy per
// representation (the numbers quoted in §5.1).
func (r RepresentationCurves) FinalAccuracy() map[tokenize.Representation]float64 {
	out := map[tokenize.Representation]float64{}
	for repr, h := range r.Histories {
		out[repr] = h.Best().ValidAccuracy
	}
	return out
}

// Print renders the three figures as aligned series.
func (r RepresentationCurves) Print(w io.Writer) {
	printSeries := func(title string, get func(train.EpochStats) float64) {
		fmt.Fprintln(w, title)
		for _, repr := range tokenize.Representations {
			h := r.Histories[repr]
			var vals []string
			for _, e := range h.Epochs {
				vals = append(vals, fmt.Sprintf("%.3f", get(e)))
			}
			fmt.Fprintf(w, "  %-14s %s\n", repr, strings.Join(vals, " "))
		}
	}
	printSeries("Figure 4: validation accuracy per epoch", func(e train.EpochStats) float64 { return e.ValidAccuracy })
	printSeries("Figure 5: training loss per epoch", func(e train.EpochStats) float64 { return e.TrainLoss })
	printSeries("Figure 6: validation loss per epoch", func(e train.EpochStats) float64 { return e.ValidLoss })
	fmt.Fprintln(w, "  Best-epoch accuracy:")
	for _, repr := range tokenize.Representations {
		fmt.Fprintf(w, "    %-14s %.3f (epoch %d)\n", repr,
			r.Histories[repr].Best().ValidAccuracy, r.Histories[repr].BestEpoch+1)
	}
}

// LengthBucket is one Figure 7 bar: the PragFormer error rate for snippets
// within a token-length band.
type LengthBucket struct {
	MaxTokens int // inclusive upper edge; the last bucket is open-ended
	Count     int
	Errors    int
}

// ErrorRate returns the bucket's error percentage.
func (b LengthBucket) ErrorRate() float64 {
	if b.Count == 0 {
		return 0
	}
	return 100 * float64(b.Errors) / float64(b.Count)
}

// Figure7 is the error-rate-by-length study.
type Figure7 struct {
	Buckets []LengthBucket
}

// RunFigure7 buckets PragFormer's directive-task test errors by snippet
// token length (the paper reports >80% of errors under length 20 and almost
// none above 50).
func (p *Pipeline) RunFigure7() Figure7 {
	split := p.DirectiveSplit()
	trained := p.Model(dataset.TaskDirective, tokenize.Text)
	v := p.Vocab(tokenize.Text)
	edges := []int{15, 25, 35, 50, 80, 1 << 30}
	buckets := make([]LengthBucket, len(edges))
	for i, e := range edges {
		buckets[i].MaxTokens = e
	}
	ids := make([][]int, len(split.Test))
	for i, in := range split.Test {
		ids[i] = v.Encode(p.Tokens(in.Rec, tokenize.Text), p.P.MaxLen)
	}
	labels := predictLabels(trained.Model, ids)
	for k, in := range split.Test {
		toks := p.Tokens(in.Rec, tokenize.Text)
		wrong := labels[k] != in.Label
		for i, e := range edges {
			if len(toks) <= e {
				buckets[i].Count++
				if wrong {
					buckets[i].Errors++
				}
				break
			}
		}
	}
	return Figure7{Buckets: buckets}
}

// Print renders the figure.
func (f Figure7) Print(w io.Writer) {
	fmt.Fprintln(w, "Figure 7: Prediction error rate by example length (tokens)")
	for i, b := range f.Buckets {
		label := fmt.Sprintf("<=%d", b.MaxTokens)
		if i == len(f.Buckets)-1 {
			label = fmt.Sprintf(">%d", f.Buckets[i-1].MaxTokens)
		}
		fmt.Fprintf(w, "  %-8s n=%4d  error %5.1f%%\n", label, b.Count, b.ErrorRate())
	}
}

// PaperExample is one Table 12 / Figure 8 qualitative case.
type PaperExample struct {
	Name      string
	Code      string
	TrueLabel bool // suite annotation
	Predicted bool
	Prob      float64
	Top       []lime.Attribution
}

// RunTable12Figure8 reproduces the four qualitative examples with LIME
// attributions over the trained directive model.
func (p *Pipeline) RunTable12Figure8() []PaperExample {
	trained := p.Model(dataset.TaskDirective, tokenize.Text)
	v := p.Vocab(tokenize.Text)
	predict := func(batch [][]string) []float64 {
		ids := make([][]int, len(batch))
		for i, tokens := range batch {
			ids[i] = v.Encode(tokens, p.P.MaxLen)
		}
		return trained.Model.PredictBatch(ids)
	}
	// LIME explains the log-odds rather than the probability: saturated
	// predictions (p ≈ 0 or 1) leave no usable signal in probability space.
	logits := func(batch [][]string) []float64 {
		out := predict(batch)
		for i, pr := range out {
			pr = math.Min(math.Max(pr, 1e-6), 1-1e-6)
			out[i] = math.Log(pr / (1 - pr))
		}
		return out
	}

	cases := []struct {
		name  string
		code  string
		label bool
	}{
		{
			"1: PolyBench matvec (with OpenMP)",
			"for (i = 0; i < POLYBENCH_LOOP_BOUND(4000, n); i++)\n" +
				"    for (j = 0; j < POLYBENCH_LOOP_BOUND(4000, n); j++)\n" +
				"        x1[i] = x1[i] + (A[i][j] * y_1[j]);\n",
			true,
		},
		{
			"2: stderr dump loop (without OpenMP)",
			"for (i = 0; i < n; i++) {\n" +
				"    fprintf(stderr, \"%0.2lf \", x[i]);\n" +
				"    if ((i % 20) == 0)\n" +
				"        fprintf(stderr, \" \\n\");\n}\n",
			false,
		},
		{
			"3: SPEC colormap loop (with OpenMP)",
			"for (i = 0; i < ((ssize_t) image->colors); i++)\n" +
				"    image->colormap[i].opacity = (IndexPacket) i;\n",
			true,
		},
		{
			"4: PolyBench unannotated init (without OpenMP)",
			"for (i = 0; i < maxgrid; i++)\n" +
				"    for (j = 0; j < maxgrid; j++) {\n" +
				"        sum_tang[i][j] = (int) ((i + 1) * (j + 1));\n" +
				"        mean[i][j] = (((int) i) - j) / maxgrid;\n" +
				"        path[i][j] = (((int) i) * (j - 1)) / maxgrid;\n}\n",
			false,
		},
	}

	explainer := lime.New(p.Cfg.Seed + 9)
	explainer.Samples = p.P.LimeSamples
	var out []PaperExample
	for _, c := range cases {
		toks, err := tokenize.Extract(c.code, tokenize.Text)
		if err != nil {
			continue
		}
		prob := predict([][]string{toks})[0]
		out = append(out, PaperExample{
			Name:      c.name,
			Code:      c.code,
			TrueLabel: c.label,
			Predicted: prob > 0.5,
			Prob:      prob,
			Top:       explainer.ExplainBatch(toks, logits, 6),
		})
	}
	return out
}

// PrintExamples renders Table 12 + Figure 8.
func PrintExamples(w io.Writer, examples []PaperExample) {
	fmt.Fprintln(w, "Table 12 / Figure 8: qualitative examples with LIME attributions")
	for _, ex := range examples {
		fmt.Fprintf(w, "  Example %s\n", ex.Name)
		fmt.Fprintf(w, "    directive: %v   PragFormer: %v (p=%.2f)\n", ex.TrueLabel, ex.Predicted, ex.Prob)
		var toks []string
		for _, a := range ex.Top {
			toks = append(toks, fmt.Sprintf("%s(%+.3f)", a.Token, a.Weight))
		}
		fmt.Fprintf(w, "    LIME top tokens: %s\n", strings.Join(toks, " "))
	}
}
