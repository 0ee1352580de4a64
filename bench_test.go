// Package pragformer_test holds the benchmark harness that regenerates
// every table and figure of the paper's evaluation. Each benchmark drives
// the corresponding experiment through a shared pipeline, so models train
// once per `go test -bench` run; per-iteration numbers after the first
// therefore measure the experiment's evaluation cost. Paper-scale results
// are produced by `go run ./cmd/experiments -mode full`; DESIGN.md's
// "Experiment index" maps each experiment to its table or figure.
package pragformer_test

import (
	"io"
	"sync"
	"testing"

	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/experiments"
	"pragformer/internal/tokenize"
)

var (
	benchOnce sync.Once
	benchPipe *experiments.Pipeline
)

func pipeline(b *testing.B) *experiments.Pipeline {
	b.Helper()
	benchOnce.Do(func() {
		benchPipe = experiments.NewPipeline(experiments.Config{Mode: experiments.Fast, Seed: 1})
	})
	return benchPipe
}

func runExperiment(b *testing.B, name string) {
	p := pipeline(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := p.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3CorpusStats regenerates Table 3 (directive statistics of
// the raw Open-OMP database).
func BenchmarkTable3CorpusStats(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4LengthHistogram regenerates Table 4 (snippet lengths).
func BenchmarkTable4LengthHistogram(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkFigure3DomainDistribution regenerates Figure 3 (snippet source
// domains).
func BenchmarkFigure3DomainDistribution(b *testing.B) { runExperiment(b, "figure3") }

// BenchmarkTable5DatasetSizes regenerates Table 5 (directive and clause
// dataset split sizes).
func BenchmarkTable5DatasetSizes(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6Representations regenerates Table 6 (the four code
// representations of the fixed example snippet).
func BenchmarkTable6Representations(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7VocabStats regenerates Table 7 (type-level corpus
// statistics per representation).
func BenchmarkTable7VocabStats(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkFigure4RepresentationAccuracy regenerates Figures 4–6 (training
// curves for the four code representations); the first iteration trains
// four models.
func BenchmarkFigure4RepresentationAccuracy(b *testing.B) { runExperiment(b, "figures456") }

// BenchmarkFigure5TrainLoss aliases the Figures 4–6 run (the three figures
// come from the same four training runs).
func BenchmarkFigure5TrainLoss(b *testing.B) { runExperiment(b, "figures456") }

// BenchmarkFigure6ValidLoss aliases the Figures 4–6 run.
func BenchmarkFigure6ValidLoss(b *testing.B) { runExperiment(b, "figures456") }

// BenchmarkTable8DirectiveClassification regenerates Table 8 (PragFormer vs
// BoW vs ComPar on directive need).
func BenchmarkTable8DirectiveClassification(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkFigure7ErrorByLength regenerates Figure 7 (error rate by snippet
// length).
func BenchmarkFigure7ErrorByLength(b *testing.B) { runExperiment(b, "figure7") }

// BenchmarkTable9PrivateClause regenerates Table 9 (private-clause task).
func BenchmarkTable9PrivateClause(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkTable10ReductionClause regenerates Table 10 (reduction-clause
// task).
func BenchmarkTable10ReductionClause(b *testing.B) { runExperiment(b, "table10") }

// BenchmarkTable11Benchmarks regenerates Table 11 (held-out PolyBench and
// SPEC-OMP generality study).
func BenchmarkTable11Benchmarks(b *testing.B) { runExperiment(b, "table11") }

// BenchmarkTable12Figure8LIME regenerates Table 12 / Figure 8 (qualitative
// examples with LIME attributions).
func BenchmarkTable12Figure8LIME(b *testing.B) { runExperiment(b, "table12") }

// BenchmarkAblationPretraining contrasts MLM-pretrained vs random
// initialization (the DeepSCC transfer-learning claim).
func BenchmarkAblationPretraining(b *testing.B) { runExperiment(b, "ablation-pretrain") }

// BenchmarkAblationHeads contrasts 1-head vs multi-head attention.
func BenchmarkAblationHeads(b *testing.B) { runExperiment(b, "ablation-heads") }

// BenchmarkAblationSeqLen contrasts input length caps (32 vs the paper's
// 110-token budget).
func BenchmarkAblationSeqLen(b *testing.B) { runExperiment(b, "ablation-seqlen") }

// BenchmarkCorpusGeneration measures raw Open-OMP generation throughput.
func BenchmarkCorpusGeneration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		corpus.Generate(corpus.Config{Seed: int64(i), Total: 300})
	}
}

// BenchmarkEndToEndPrediction measures single-snippet inference through the
// trained directive model — the paper's "negligible inference time" claim
// versus S2S compilation.
func BenchmarkEndToEndPrediction(b *testing.B) {
	p := pipeline(b)
	trained := p.Model(dataset.TaskDirective, tokenize.Text)
	v := p.Vocab(tokenize.Text)
	src := "for (i = 0; i < n; i++) { t = a[i] * 2.0; out[i] = t + in[i]; }"
	toks, err := tokenize.Extract(src, tokenize.Text)
	if err != nil {
		b.Fatal(err)
	}
	ids := v.Encode(toks, p.P.MaxLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trained.Model.PredictBatch([][]int{ids})
	}
}
