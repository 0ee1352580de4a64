// S2S comparison: reproduce the paper's §6 proposal of combining PragFormer
// with the S2S compilers — run both over held-out snippets and print the
// agreement matrix. Where both agree on a directive, it can be trusted
// ("verifying the correctness of the directive and the necessity", §2.1);
// where they disagree, the snippet deserves human review. A PolyBench-style
// pass afterwards shows why the combination breaks down on benchmark code:
// ComPar cannot even parse the kernels PragFormer handles.
package main

import (
	"errors"
	"fmt"

	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/s2s"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

func main() {
	model, vocab, test := trainDirectiveModel()
	compar := s2s.NewComPar()

	fmt.Println("=== Open-OMP held-out test split ===")
	agreementMatrix(model, vocab, test, compar)

	fmt.Println("\n=== PolyBench-style suite (transfer) ===")
	pb := corpus.GeneratePolyBench(42)
	agreementMatrix(model, vocab, pb.Records, compar)
}

func agreementMatrix(model *core.PragFormer, vocab *tokenize.Vocab, records []*corpus.Record, compar *s2s.ComPar) {

	type cell struct{ agreeYes, agreeNo, onlyModel, onlyCompar, failures int }
	var m cell
	correctModel, correctBoth := 0, 0

	for _, rec := range records {
		toks, err := tokenize.Extract(rec.Code, tokenize.Text)
		if err != nil {
			continue
		}
		modelYes := model.PredictBatch([][]int{vocab.Encode(toks, 64)})[0] > 0.5

		comparYes := false
		res, err := compar.Compile(rec.Code)
		switch {
		case errors.Is(err, s2s.ErrParse):
			m.failures++
		case err != nil:
			m.failures++
		default:
			comparYes = res.Directive != nil
		}

		switch {
		case modelYes && comparYes:
			m.agreeYes++
		case !modelYes && !comparYes:
			m.agreeNo++
		case modelYes:
			m.onlyModel++
		default:
			m.onlyCompar++
		}
		if modelYes == rec.HasOMP() {
			correctModel++
		}
		if modelYes && comparYes && rec.HasOMP() {
			correctBoth++
		}
	}

	total := len(records)
	positives := 0
	for _, r := range records {
		if r.HasOMP() {
			positives++
		}
	}
	fmt.Printf("%d snippets (%d with directives)\n", total, positives)
	fmt.Println("Agreement matrix (PragFormer vs ComPar):")
	fmt.Printf("  both say parallelize:   %3d\n", m.agreeYes)
	fmt.Printf("  both say leave serial:  %3d\n", m.agreeNo)
	fmt.Printf("  only PragFormer says yes: %d\n", m.onlyModel)
	fmt.Printf("  only ComPar says yes:     %d\n", m.onlyCompar)
	fmt.Printf("  ComPar compile failures:  %d\n", m.failures)
	fmt.Printf("PragFormer accuracy:      %.2f\n", float64(correctModel)/float64(total))
	if m.agreeYes > 0 {
		fmt.Printf("precision when both agree: %.2f (the paper's §6 verification idea)\n",
			float64(correctBoth)/float64(m.agreeYes))
	}
}

func trainDirectiveModel() (*core.PragFormer, *tokenize.Vocab, []*corpus.Record) {
	c := corpus.Generate(corpus.Config{Seed: 3, Total: 900})
	split := dataset.Directive(c, dataset.Options{Seed: 3})
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
	model, err := core.New(core.Config{Vocab: vocab.Size(), MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 3)
	if err != nil {
		panic(err)
	}
	fmt.Println("training directive model on Open-OMP...")
	hist := train.Fit(model, encode(split.Train), encode(split.Valid), train.Config{
		Epochs: 4, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1, Seed: 3,
	})
	fmt.Printf("model ready (valid accuracy %.3f)\n\n", hist.Best().ValidAccuracy)
	test := make([]*corpus.Record, len(split.Test))
	for i, in := range split.Test {
		test[i] = in.Rec
	}
	return model, vocab, test
}
