package advisor

import (
	"fmt"

	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/train"
)

// DemoConfig sizes the zero-setup demo bundle: the directive classifier
// fitted at startup on a generated Open-OMP corpus, with its vocabulary. Both
// cmd/serve (no -directive artifact) and `pragformer scan` (no -model)
// train through this path, so their demo models are identical at equal
// settings — the scan CI smoke relies on that determinism.
type DemoConfig struct {
	// Seed drives corpus generation, splits, and model init. Runs with the
	// same config are bit-identical.
	Seed int64
	// Total is the generated corpus size (default 1000).
	Total int
	// Epochs trains the classifier this long (default 5).
	Epochs int
	// Progress receives the fitted classifier's line; nil discards.
	Progress func(string)
}

// The demo classifier's width, heads and depth: small enough to train
// at startup.
const demoD, demoHeads, demoLayers = 32, 4, 1

func (c *DemoConfig) fillDefaults() {
	if c.Total <= 0 {
		c.Total = 1000
	}
	if c.Epochs <= 0 {
		c.Epochs = 5
	}
}

// TrainDemo fits the directive classifier on a generated corpus and
// bundles it with its vocabulary.
func TrainDemo(cfg DemoConfig) (*Models, error) {
	cfg.fillDefaults()
	progress := cfg.Progress
	if progress == nil {
		progress = func(string) {}
	}
	c := corpus.Generate(corpus.Config{Seed: cfg.Seed, Total: cfg.Total})
	split := dataset.Directive(c, dataset.Options{Seed: cfg.Seed})

	v, err := split.Vocab()
	if err != nil {
		return nil, err
	}
	seed := cfg.Seed + 10
	m, err := core.New(core.Config{
		Vocab: v.Size(), D: demoD, Heads: demoHeads, Layers: demoLayers,
	}, seed)
	if err != nil {
		return nil, err
	}
	trainSet, err := dataset.Examples(split.Train, v, core.DefaultMaxLen)
	if err != nil {
		return nil, err
	}
	validSet, err := dataset.Examples(split.Valid, v, core.DefaultMaxLen)
	if err != nil {
		return nil, err
	}
	hist := train.Fit(m, trainSet, validSet, train.Config{
		Epochs: cfg.Epochs, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1,
		Seed: seed,
	})
	// The demo keeps the last epoch's weights: report their accuracy.
	progress(fmt.Sprintf("%s: valid accuracy %.3f", dataset.TaskDirective, hist.Epochs[len(hist.Epochs)-1].ValidAccuracy))
	return &Models{Directive: m, Vocab: v}, nil
}
