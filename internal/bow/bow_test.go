package bow

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/tokenize"
)

func vocabFor(seqs [][]string) *tokenize.Vocab {
	return tokenize.BuildVocab(seqs, 1)
}

func TestLearnsKeywordSignal(t *testing.T) {
	// Positive examples contain "sum", negatives contain "fprintf".
	var examples []Example
	for i := 0; i < 40; i++ {
		examples = append(examples,
			Example{Tokens: []string{"for", "sum", "+=", "a", "[", "i", "]"}, Label: true},
			Example{Tokens: []string{"for", "fprintf", "(", "stderr", ")"}, Label: false})
	}
	var seqs [][]string
	for _, ex := range examples {
		seqs = append(seqs, ex.Tokens)
	}
	m := New(vocabFor(seqs))
	losses := m.Train(examples, TrainConfig{Epochs: 15, LR: 0.1, Seed: 1})
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v", losses)
	}
	if !m.PredictLabel([]string{"sum", "+=", "x"}) {
		t.Error("positive-pattern misclassified")
	}
	if m.PredictLabel([]string{"fprintf", "(", "stderr"}) {
		t.Error("negative-pattern misclassified")
	}
}

func TestPredictRange(t *testing.T) {
	m := New(vocabFor([][]string{{"a", "b"}}))
	p := m.Predict([]string{"a", "zzz_unseen"})
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("p = %g", p)
	}
}

func TestOrderInvariance(t *testing.T) {
	// BoW discards order by construction.
	m := New(vocabFor([][]string{{"a", "b", "c"}}))
	m.Weights[m.Vocab.ID("a")] = 0.7
	m.Weights[m.Vocab.ID("c")] = -0.2
	p1 := m.Predict([]string{"a", "b", "c"})
	p2 := m.Predict([]string{"c", "b", "a"})
	if p1 != p2 {
		t.Fatalf("order changed prediction: %g vs %g", p1, p2)
	}
}

func TestFeaturizeCounts(t *testing.T) {
	m := New(vocabFor([][]string{{"x", "y"}}))
	f := m.featurize([]string{"x", "y", "unk1", "x", "unk2"})
	want := []feature{{tokenize.UNK, 2}, {m.Vocab.ID("x"), 2}, {m.Vocab.ID("y"), 1}}
	if fmt.Sprint(f) != fmt.Sprint(want) {
		t.Fatalf("features %v, want %v in ascending id order", f, want)
	}
}

func TestDeterministicTraining(t *testing.T) {
	mk := func() *Model {
		examples := []Example{
			{Tokens: []string{"a", "b"}, Label: true},
			{Tokens: []string{"c", "d"}, Label: false},
			{Tokens: []string{"a", "d"}, Label: true},
		}
		m := New(vocabFor([][]string{{"a", "b", "c", "d"}}))
		m.Train(examples, TrainConfig{Epochs: 5, LR: 0.1, Seed: 7})
		return m
	}
	m1, m2 := mk(), mk()
	for i := range m1.Weights {
		if m1.Weights[i] != m2.Weights[i] {
			t.Fatal("training not deterministic")
		}
	}
}

// TestTrainDeterministic trains on one many-token set several times in one
// process: weights, bias, losses and predictions must be bit-equal. Float
// addition is order-dependent, so a logit summed in map iteration order
// drifts between runs on features this dense.
func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := make([]string, 60)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	var examples []Example
	var seqs [][]string
	for i := 0; i < 300; i++ {
		toks := make([]string, 20+rng.Intn(40))
		for j := range toks {
			toks[j] = words[rng.Intn(len(words))]
		}
		examples = append(examples, Example{Tokens: toks, Label: rng.Intn(3) > 0})
		seqs = append(seqs, toks)
	}
	v := vocabFor(seqs)
	train := func() (*Model, []float64) {
		m := New(v)
		return m, m.Train(examples, TrainConfig{Epochs: 8, LR: 0.1, L2: 1e-5, Seed: 11})
	}
	ref, refLosses := train()
	for run := 1; run < 6; run++ {
		m, losses := train()
		for i := range ref.Weights {
			if math.Float64bits(m.Weights[i]) != math.Float64bits(ref.Weights[i]) {
				t.Fatalf("run %d: weight %d is %v, first run %v", run, i, m.Weights[i], ref.Weights[i])
			}
		}
		if math.Float64bits(m.Bias) != math.Float64bits(ref.Bias) {
			t.Fatalf("run %d: bias %v, first run %v", run, m.Bias, ref.Bias)
		}
		for i := range refLosses {
			if math.Float64bits(losses[i]) != math.Float64bits(refLosses[i]) {
				t.Fatalf("run %d: epoch %d loss %v, first run %v", run, i, losses[i], refLosses[i])
			}
		}
		for _, ex := range examples {
			if p, want := m.Predict(ex.Tokens), ref.Predict(ex.Tokens); math.Float64bits(p) != math.Float64bits(want) {
				t.Fatalf("run %d: Predict %v, first run %v", run, p, want)
			}
		}
	}
}

func TestL2ShrinksWeights(t *testing.T) {
	examples := []Example{}
	for i := 0; i < 30; i++ {
		examples = append(examples,
			Example{Tokens: []string{"p"}, Label: true},
			Example{Tokens: []string{"q"}, Label: false})
	}
	v := vocabFor([][]string{{"p", "q"}})
	free := New(v)
	free.Train(examples, TrainConfig{Epochs: 30, LR: 0.2, Seed: 1})
	reg := New(v)
	reg.Train(examples, TrainConfig{Epochs: 30, LR: 0.2, L2: 0.1, Seed: 1})
	if math.Abs(reg.Weights[v.ID("p")]) >= math.Abs(free.Weights[v.ID("p")]) {
		t.Errorf("L2 did not shrink weights: %g vs %g",
			reg.Weights[v.ID("p")], free.Weights[v.ID("p")])
	}
}

func TestSigmoidStable(t *testing.T) {
	for _, x := range []float64{-1000, -10, 0, 10, 1000} {
		s := sigmoid(x)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("sigmoid(%g) = %g", x, s)
		}
	}
	if sigmoid(0) != 0.5 {
		t.Error("sigmoid(0) != 0.5")
	}
	if s := sigmoid(3) + sigmoid(-3); math.Abs(s-1) > 1e-12 {
		t.Errorf("sigmoid symmetry violated: %g", s)
	}
}

func TestTrainEmptySafe(t *testing.T) {
	m := New(vocabFor(nil))
	losses := m.Train(nil, TrainConfig{Epochs: 2})
	if len(losses) != 2 {
		t.Fatalf("losses = %v", losses)
	}
}
