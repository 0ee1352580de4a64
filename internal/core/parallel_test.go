package core

import (
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// synthExamples builds a deterministic synthetic classification set: random
// token ids with a label derived from the token sum, so the task is
// learnable and both label classes appear.
func synthExamples(n, vocab, length int, seed int64) []train.Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]train.Example, n)
	for i := range out {
		ids := make([]int, length)
		sum := 0
		ids[0] = tokenize.CLS
		for t := 1; t < length; t++ {
			ids[t] = tokenize.NumSpecials + rng.Intn(vocab-tokenize.NumSpecials)
			sum += ids[t]
		}
		out[i] = train.Example{IDs: ids, Label: sum%2 == 0}
	}
	return out
}

func fitWithWorkers(t *testing.T, workers int) train.History {
	t.Helper()
	m, err := New(Config{Vocab: 50, MaxLen: 16, D: 16, Heads: 2, Layers: 1, Dropout: 0}, 7)
	if err != nil {
		t.Fatal(err)
	}
	trainSet := synthExamples(48, 50, 12, 11)
	validSet := synthExamples(16, 50, 12, 22)
	return train.Fit(m, trainSet, validSet, train.Config{
		Epochs: 3, BatchSize: 8, LR: 1e-3, ClipNorm: 1, Seed: 5, Workers: workers,
	})
}

// TestFitWorkersDeterministic is the PR's core acceptance test: training the
// real transformer with 4 data-parallel workers must reproduce the
// sequential learning curve (losses within 1e-9, identical best epoch).
// Dropout is 0 so replicas have no independent noise; remaining differences
// come only from floating-point summation order in the all-reduce.
func TestFitWorkersDeterministic(t *testing.T) {
	h1 := fitWithWorkers(t, 1)
	h4 := fitWithWorkers(t, 4)
	if len(h1.Epochs) != len(h4.Epochs) {
		t.Fatalf("epoch count %d vs %d", len(h1.Epochs), len(h4.Epochs))
	}
	for i := range h1.Epochs {
		e1, e4 := h1.Epochs[i], h4.Epochs[i]
		if d := math.Abs(e1.TrainLoss - e4.TrainLoss); d > 1e-9 {
			t.Errorf("epoch %d train loss drift %.3g (%.12f vs %.12f)", i, d, e1.TrainLoss, e4.TrainLoss)
		}
		if d := math.Abs(e1.ValidLoss - e4.ValidLoss); d > 1e-9 {
			t.Errorf("epoch %d valid loss drift %.3g (%.12f vs %.12f)", i, d, e1.ValidLoss, e4.ValidLoss)
		}
		if e1.ValidAccuracy != e4.ValidAccuracy {
			t.Errorf("epoch %d accuracy %.3f vs %.3f", i, e1.ValidAccuracy, e4.ValidAccuracy)
		}
	}
	if h1.BestEpoch != h4.BestEpoch {
		t.Errorf("best epoch %d vs %d", h1.BestEpoch, h4.BestEpoch)
	}
}

// TestFitWorkersRepeatable: two parallel runs with the same seed and worker
// count must be bit-identical (fixed reduction order, disjoint shards).
func TestFitWorkersRepeatable(t *testing.T) {
	h1 := fitWithWorkers(t, 3)
	h2 := fitWithWorkers(t, 3)
	for i := range h1.Epochs {
		if h1.Epochs[i] != h2.Epochs[i] {
			t.Fatalf("epoch %d differs across identical parallel runs: %+v vs %+v",
				i, h1.Epochs[i], h2.Epochs[i])
		}
	}
}

// TestCloneIndependent verifies a clone starts weight-identical and stays
// independent: training the clone must not move the original's weights.
func TestCloneIndependent(t *testing.T) {
	m, err := New(Config{Vocab: 40, MaxLen: 12, D: 16, Heads: 2, Layers: 1, Dropout: 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := m.Clone(99)
	mp, cp := m.Params(), c.Params()
	for i := range mp {
		for j, v := range mp[i].W.Data {
			if cp[i].W.Data[j] != v {
				t.Fatalf("param %q differs after clone", mp[i].Name)
			}
		}
	}
	before := m.FC1.W.W.Clone()
	ids := synthExamples(1, 40, 10, 1)[0]
	c.LossAndBackward(ids.IDs, ids.Label)
	nonzero := false
	for _, v := range c.FC1.W.Grad.Data {
		if v != 0 {
			nonzero = true
			break
		}
	}
	if !nonzero {
		t.Fatal("clone accumulated no gradient")
	}
	for j, v := range before.Data {
		if m.FC1.W.W.Data[j] != v {
			t.Fatal("training the clone mutated the original")
		}
	}
	if m.FC1.W.Grad != nil {
		t.Fatal("clone backward leaked gradients into the original")
	}
}
