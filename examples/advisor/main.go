// Advisor: the paper's "immediate on-the-fly advice" scenario (§2.1). A
// trained PragFormer inspects loops a developer is writing — without
// compiling or executing anything — and for each one reports whether it
// deserves an OpenMP directive, which clauses the dependence analysis
// supports, what ComPar (the S2S baseline) would do, and which tokens drove
// the model's decision (LIME).
//
// The whole editor buffer goes through advisor.Models.SuggestBatch in one
// call: the directive classifier runs once over all loops (a batched
// forward), clause analysis and S2S corroboration stay per-loop. See
// README.md in this directory for the API walkthrough.
package main

import (
	"fmt"
	"math"
	"strings"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/lime"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// workInProgress simulates the developer's editor buffer: four loops in
// various states of parallelizability.
var workInProgress = []string{
	// An elementwise kernel begging for a directive.
	"for (i = 0; i < nx; i++) flux[i] = 0.5 * (rho[i] + rho[i+1]) * vel[i];",
	// A scan with a carried dependence.
	"for (i = 1; i < n; i++) csum[i] = csum[i-1] + data[i];",
	// A reduction in the form Cetus cannot match but PragFormer can learn.
	"for (i = 0; i < n; i++) sum = sum + u[i] * u[i];",
	// Output loop: I/O pins the iteration order.
	`for (i = 0; i < n; i++) fprintf(stderr, "%0.2lf ", x[i]);`,
}

func main() {
	models := trainAdvisor()
	explainer := lime.New(7)
	explainer.Samples = 150

	// One batched pass over the whole buffer.
	items, err := models.SuggestBatch(workInProgress)
	if err != nil {
		panic(err)
	}

	for k, src := range workInProgress {
		fmt.Printf("── loop %d %s\n%s\n", k+1, strings.Repeat("─", 40), strings.TrimSpace(src))
		if items[k].Err != nil {
			fmt.Println("  parse error:", items[k].Err)
			continue
		}
		s := items[k].Suggestion
		verdict := "leave serial"
		if s.Parallelize {
			verdict = "add " + s.Directive.String()
		}
		fmt.Printf("  PragFormer: p=%.2f → %s [%s]\n", s.Probability, verdict, s.Corroboration.Tier)

		toks, err := tokenize.Extract(src, tokenize.Text)
		if err != nil {
			continue
		}
		// Every perturbation in one batched forward, scored as log-odds.
		logits := func(batch [][]string) []float64 {
			ids := make([][]int, len(batch))
			for i, tokens := range batch {
				ids[i] = models.Vocab.Encode(tokens, models.EffectiveMaxLen())
			}
			out := models.Directive.PredictBatch(ids)
			for i, pr := range out {
				pr = math.Min(math.Max(pr, 1e-6), 1-1e-6)
				out[i] = math.Log(pr / (1 - pr))
			}
			return out
		}
		var parts []string
		for _, a := range explainer.ExplainBatch(toks, logits, 4) {
			parts = append(parts, fmt.Sprintf("%s(%+.2f)", a.Token, a.Weight))
		}
		fmt.Printf("  LIME:       %s\n\n", strings.Join(parts, " "))
	}
}

// trainAdvisor fits a small directive classifier on a generated corpus and
// wraps it in the advisor bundle (the dependence analysis supplies the
// clauses).
func trainAdvisor() *advisor.Models {
	c := corpus.Generate(corpus.Config{Seed: 2, Total: 1000})
	split := dataset.Directive(c, dataset.Options{Seed: 2})
	vocab, err := split.Vocab()
	if err != nil {
		panic(err)
	}
	encode := func(ins []dataset.Instance) []train.Example {
		examples, err := dataset.Examples(ins, vocab, 64)
		if err != nil {
			panic(err)
		}
		return examples
	}
	model, err := core.New(core.Config{Vocab: vocab.Size(), MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("training advisor model...")
	hist := train.Fit(model, encode(split.Train), encode(split.Valid), train.Config{
		Epochs: 6, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1, Seed: 2,
	})
	fmt.Printf("advisor ready (valid accuracy %.3f)\n\n", hist.Best().ValidAccuracy)
	return &advisor.Models{Directive: model, Vocab: vocab}
}
