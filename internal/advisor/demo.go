package advisor

import (
	"fmt"

	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// DemoConfig sizes the zero-setup demo bundle: three classifiers fitted at
// startup on a generated Open-OMP corpus, sharing one vocabulary. Both
// cmd/serve (no -directive artifact) and `pragformer scan` (no -model)
// train through this path, so their demo models are identical at equal
// settings — the scan CI smoke relies on that determinism.
type DemoConfig struct {
	// Seed drives corpus generation, splits, and model init. Runs with the
	// same config are bit-identical (at Workers <= 1).
	Seed int64
	// Total is the generated corpus size (default 1000).
	Total int
	// Epochs trains each classifier this long (default 5).
	Epochs int
	// Workers is the data-parallel training worker count. Note that worker
	// counts change the all-reduce summation order, so only Workers <= 1 is
	// bit-reproducible across machines.
	Workers int
	// D, Heads, Layers size the classifiers (defaults 32, 4, 1 — the demo
	// scale served by cmd/serve since PR 2).
	D, Heads, Layers int
	// Progress receives one line per fitted classifier; nil discards.
	Progress func(string)
}

func (c *DemoConfig) fillDefaults() {
	if c.Total <= 0 {
		c.Total = 1000
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
	if c.D <= 0 {
		c.D = 32
	}
	if c.Heads <= 0 {
		c.Heads = 4
	}
	if c.Layers <= 0 {
		c.Layers = 1
	}
}

// TrainDemo fits the directive/private/reduction classifiers on a
// generated corpus and bundles them with the shared vocabulary.
func TrainDemo(cfg DemoConfig) (*Models, error) {
	cfg.fillDefaults()
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	c := corpus.Generate(corpus.Config{Seed: cfg.Seed, Total: cfg.Total})
	dirSplit := dataset.Directive(c, dataset.Options{Seed: cfg.Seed})

	var seqs [][]string
	for _, in := range dirSplit.Train {
		toks, err := tokenize.Extract(in.Rec.Code, tokenize.Text)
		if err != nil {
			return nil, err
		}
		seqs = append(seqs, toks)
	}
	v := tokenize.BuildVocab(seqs, 1)

	fit := func(task dataset.Task, taskSeed int64) (*core.PragFormer, error) {
		split := dirSplit
		if task != dataset.TaskDirective {
			split = dataset.Clause(c, task, dataset.Options{Seed: cfg.Seed, Balance: true})
		}
		encode := func(ins []dataset.Instance) ([]train.Example, error) {
			out := make([]train.Example, len(ins))
			for i, in := range ins {
				ids, err := v.EncodeText(in.Rec.Code, core.DefaultMaxLen)
				if err != nil {
					return nil, err
				}
				out[i] = train.Example{IDs: ids, Label: in.Label}
			}
			return out, nil
		}
		m, err := core.New(core.Config{
			Vocab: v.Size(), D: cfg.D, Heads: cfg.Heads, Layers: cfg.Layers,
		}, taskSeed)
		if err != nil {
			return nil, err
		}
		trainSet, err := encode(split.Train)
		if err != nil {
			return nil, err
		}
		validSet, err := encode(split.Valid)
		if err != nil {
			return nil, err
		}
		hist := train.Fit(m, trainSet, validSet, train.Config{
			Epochs: cfg.Epochs, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1,
			Seed: taskSeed, Workers: cfg.Workers,
		})
		// The demo keeps the last epoch's weights: report their accuracy.
		progress(fmt.Sprintf("%s: valid accuracy %.3f", task, hist.Epochs[len(hist.Epochs)-1].ValidAccuracy))
		return m, nil
	}

	models := &Models{Vocab: v, MaxLen: core.DefaultMaxLen}
	var err error
	if models.Directive, err = fit(dataset.TaskDirective, cfg.Seed+10); err != nil {
		return nil, err
	}
	if models.Private, err = fit(dataset.TaskPrivate, cfg.Seed+11); err != nil {
		return nil, err
	}
	if models.Reduction, err = fit(dataset.TaskReduction, cfg.Seed+12); err != nil {
		return nil, err
	}
	return models, nil
}
