// Package bow implements the paper's statistical baseline (§5.2): a
// bag-of-words count-vector representation with a logistic-regression
// classifier trained by gradient descent with L2 regularization. Order and
// structure are discarded, which is exactly the capability gap PragFormer's
// self-attention closes.
package bow

import (
	"math"
	"math/rand"
	"slices"

	"pragformer/internal/tokenize"
)

// Model is a logistic regression over token counts.
type Model struct {
	Vocab   *tokenize.Vocab
	Weights []float64
	Bias    float64
}

// New builds an untrained model over a vocabulary.
func New(v *tokenize.Vocab) *Model {
	return &Model{Vocab: v, Weights: make([]float64, v.Size())}
}

// feature is one vocabulary id's count in a token sequence.
type feature struct {
	id    int
	count float64
}

// featurize builds the sparse count vector of a token sequence in ascending
// id order. Float addition is order-dependent, so every sum over the vector
// must run in one order for training and prediction to be bit-reproducible.
func (m *Model) featurize(tokens []string) []feature {
	ids := make([]int, len(tokens))
	for i, tok := range tokens {
		ids[i] = m.Vocab.ID(tok)
	}
	slices.Sort(ids)
	var feats []feature
	for _, id := range ids {
		if n := len(feats); n > 0 && feats[n-1].id == id {
			feats[n-1].count++
		} else {
			feats = append(feats, feature{id, 1})
		}
	}
	return feats
}

// score computes the pre-sigmoid logit for sparse features.
func (m *Model) score(feats []feature) float64 {
	s := m.Bias
	for _, f := range feats {
		s += m.Weights[f.id] * f.count
	}
	return s
}

// Predict returns the positive-class probability.
func (m *Model) Predict(tokens []string) float64 {
	return sigmoid(m.score(m.featurize(tokens)))
}

// PredictLabel applies the 0.5 threshold.
func (m *Model) PredictLabel(tokens []string) bool { return m.Predict(tokens) > 0.5 }

// Example is one labeled token sequence.
type Example struct {
	Tokens []string
	Label  bool
}

// TrainConfig controls SGD.
type TrainConfig struct {
	Epochs int
	LR     float64
	L2     float64
	Seed   int64
}

// Train fits the model with SGD, returning per-epoch training losses.
func (m *Model) Train(examples []Example, cfg TrainConfig) []float64 {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	feats := make([][]feature, len(examples))
	for i, ex := range examples {
		feats[i] = m.featurize(ex.Tokens)
	}
	order := make([]int, len(examples))
	for i := range order {
		order[i] = i
	}
	var losses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		total := 0.0
		for _, idx := range order {
			f := feats[idx]
			y := 0.0
			if examples[idx].Label {
				y = 1
			}
			p := sigmoid(m.score(f))
			total += bceLoss(p, y)
			g := p - y
			for _, ft := range f {
				m.Weights[ft.id] -= cfg.LR * (g*ft.count + cfg.L2*m.Weights[ft.id])
			}
			m.Bias -= cfg.LR * g
		}
		losses = append(losses, total/float64(max(1, len(examples))))
	}
	return losses
}

func sigmoid(x float64) float64 {
	if x >= 0 {
		return 1 / (1 + math.Exp(-x))
	}
	e := math.Exp(x)
	return e / (1 + e)
}

func bceLoss(p, y float64) float64 {
	p = math.Min(math.Max(p, 1e-12), 1-1e-12)
	return -(y*math.Log(p) + (1-y)*math.Log(1-p))
}
