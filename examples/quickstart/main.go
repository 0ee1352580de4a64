// Quickstart: generate a small Open-OMP corpus, train a tiny PragFormer on
// the directive task, and ask it about new loops — the end-to-end journey of
// the paper in under a minute on a laptop.
package main

import (
	"fmt"

	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

func main() {
	// 1. Build a corpus of labeled loop snippets.
	c := corpus.Generate(corpus.Config{Seed: 1, Total: 900})
	fmt.Println(c)

	// 2. Split it into the RQ1 directive dataset.
	split := dataset.Directive(c, dataset.Options{Seed: 1})
	tr, va, te := split.Sizes()
	fmt.Printf("dataset: %d train / %d valid / %d test\n", tr, va, te)

	// 3. Tokenize with the raw-text representation (the paper's best).
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

	// 4. Train a small transformer classifier.
	model, err := core.New(core.Config{
		Vocab: vocab.Size(), MaxLen: 64, D: 32, Heads: 4, Layers: 1,
	}, 1)
	if err != nil {
		panic(err)
	}
	hist := train.Fit(model, encode(split.Train), encode(split.Valid), train.Config{
		Epochs: 6, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1, Seed: 1,
		Progress: func(s string) { fmt.Println(" ", s) },
	})
	fmt.Printf("best valid accuracy: %.3f\n", hist.Best().ValidAccuracy)

	loss, acc := train.Evaluate(model, encode(split.Test))
	fmt.Printf("test: loss %.3f accuracy %.3f\n", loss, acc)

	// 5. Ask about new code (one snippet is a batch of one).
	for _, snippet := range []string{
		"for (i = 0; i < n; i++) out[i] = in[i] * 2.0 + src[i];",
		"for (i = 1; i < n; i++) a[i] = a[i-1] * 2;",
		`for (i = 0; i < n; i++) printf("%d\n", a[i]);`,
	} {
		toks, err := tokenize.Extract(snippet, tokenize.Text)
		if err != nil {
			panic(err)
		}
		p := model.PredictBatch([][]int{vocab.Encode(toks, 64)})[0]
		fmt.Printf("p=%.2f  %s\n", p, snippet)
	}
}
