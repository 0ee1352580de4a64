// MLM pretraining: demonstrate the transfer-learning recipe that stands in
// for the paper's DeepSCC initialization (§4.1). An encoder is first
// pretrained with the masked-language-model objective on unlabeled code,
// then its weights seed a classifier that fine-tunes on the directive task;
// a twin classifier trains from random init for contrast.
package main

import (
	"fmt"
	"math/rand"

	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/train"
)

func main() {
	c := corpus.Generate(corpus.Config{Seed: 4, Total: 700})
	split := dataset.Directive(c, dataset.Options{Seed: 4})

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
	trainSet := encode(split.Train)
	validSet := encode(split.Valid)
	cfg := core.Config{Vocab: vocab.Size(), MaxLen: 64, D: 32, Heads: 4, Layers: 1}

	// --- Phase 1: MLM pretraining on unlabeled sequences. ---
	pre, err := core.New(cfg, 10)
	if err != nil {
		panic(err)
	}
	fmt.Println("phase 1: masked-language-model pretraining")
	opt := train.NewAdamW(1e-3)
	head := pre.NewMLMHead(10) // lives for phase 1 only
	params := pre.MLMParams(head)
	rng := rand.New(rand.NewSource(10))
	for epoch := 0; epoch < 2; epoch++ {
		total, n := 0.0, 0
		batch := 0
		train.ZeroGrads(params)
		for _, ex := range trainSet {
			l, k := pre.MLMLossAndBackward(head, ex.IDs, rng)
			if k > 0 {
				total += l
				n++
			}
			batch++
			if batch == 16 {
				train.OptStep(opt, params, batch, 1, 1)
				batch = 0
			}
		}
		fmt.Printf("  epoch %d: masked-token loss %.3f\n", epoch+1, total/float64(n))
	}

	// --- Phase 2: fine-tune two classifiers, one warm and one cold. ---
	fineCfg := train.Config{Epochs: 3, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1, Seed: 11}

	warm, err := core.New(cfg, 11)
	if err != nil {
		panic(err)
	}
	if err := warm.CopyEncoderFrom(pre); err != nil {
		panic(err)
	}
	fmt.Println("phase 2a: fine-tuning from pretrained encoder")
	warmHist := train.Fit(warm, trainSet, validSet, fineCfg)

	cold, err := core.New(cfg, 11)
	if err != nil {
		panic(err)
	}
	fmt.Println("phase 2b: training from random initialization")
	coldHist := train.Fit(cold, trainSet, validSet, fineCfg)

	fmt.Println("\nvalidation accuracy per epoch:")
	fmt.Printf("  %-14s", "pretrained:")
	for _, e := range warmHist.Epochs {
		fmt.Printf(" %.3f", e.ValidAccuracy)
	}
	fmt.Printf("\n  %-14s", "from scratch:")
	for _, e := range coldHist.Epochs {
		fmt.Printf(" %.3f", e.ValidAccuracy)
	}
	fmt.Printf("\n\nbest: pretrained %.3f vs from-scratch %.3f\n",
		warmHist.Best().ValidAccuracy, coldHist.Best().ValidAccuracy)
}
