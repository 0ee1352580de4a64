// Generate: the paper's §6 end-goal — produce entire OpenMP directives.
// The PragFormer directive classifier decides whether a loop gets one, the
// dependence analysis that agrees with it supplies the whole directive
// (every private and reduction clause its verdict depends on), and ComPar
// corroboration grades the verdict tier, exactly the combined workflow the
// paper proposes ("in cases both the model and the S2S compilers agree on a
// directive, it will remain").
package main

import (
	"fmt"
	"strings"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/train"
)

var snippets = []string{
	"for (i = 0; i < n; i++) sum += a[i] * b[i];",
	"for (i = 0; i < n; i++) for (j = 0; j < n; j++) x[i] = x[i] + A[i][j] * y[j];",
	"for (i = 0; i < rows; i++) { t = in[i] * scale; out[i] = t + t * t; }",
	"for (i = 1; i < n; i++) a[i] = a[i-1] + b[i];",
	`for (i = 0; i < n; i++) fprintf(stderr, "%d ", a[i]);`,
}

func main() {
	m := buildModels()
	for _, src := range snippets {
		s, err := m.Suggest(src)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Println(strings.Repeat("─", 64))
		if s.Directive != nil {
			fmt.Println(s.Annotate(src))
			fmt.Printf("  (p=%.2f, tier: %s)\n", s.Probability, s.Corroboration.Tier)
		} else {
			fmt.Println(src)
			fmt.Printf("  left serial (p=%.2f)\n", s.Probability)
		}
	}
}

// buildModels trains the directive classifier on a generated corpus.
func buildModels() *advisor.Models {
	fmt.Println("training the directive classifier...")
	c := corpus.Generate(corpus.Config{Seed: 8, Total: 800})
	split := dataset.Directive(c, dataset.Options{Seed: 8})
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
	model, err := core.New(core.Config{Vocab: vocab.Size(), MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 20)
	if err != nil {
		panic(err)
	}
	h := train.Fit(model, encode(split.Train), encode(split.Valid), train.Config{
		Epochs: 4, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1,
	})
	fmt.Printf("  directive classifier: valid accuracy %.3f\n", h.Best().ValidAccuracy)
	return &advisor.Models{Directive: model, Vocab: vocab}
}
