package train

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/nn"
	"pragformer/internal/tensor"
)

// mlp is a Replicable matmul-heavy test model: hashed bag-of-ids features
// through a two-layer perceptron with softmax cross-entropy. It exists so
// the train package can exercise and benchmark the data-parallel engine
// without importing core (which itself imports train).
type mlp struct {
	d      int
	l1, l2 *nn.Linear
	bw     nn.Borrows
}

func newMLP(d, hidden int, seed int64) *mlp {
	rng := rand.New(rand.NewSource(seed))
	return &mlp{d: d, l1: nn.NewLinear("l1", d, hidden, rng), l2: nn.NewLinear("l2", hidden, 2, rng)}
}

func (m *mlp) Params() []*nn.Param { return append(m.l1.Params(), m.l2.Params()...) }

func (m *mlp) Replicate(seed int64) Model {
	c := newMLP(m.d, m.l1.W.W.Cols, seed)
	nn.CopyWeights(c.Params(), m.Params())
	return c
}

func (m *mlp) features(ids []int) *tensor.Matrix {
	x := tensor.New(1, m.d)
	row := x.Row(0)
	for k, id := range ids {
		row[(id+7*k)%m.d]++
	}
	return x
}

func (m *mlp) forward(ids []int, bw *nn.Borrows) (p []float64, c1, c2 *nn.LinearCache, cr *nn.ReLUCache) {
	h, c1 := m.l1.Forward(m.features(ids), bw)
	a, cr := nn.ReLU(h, bw)
	logits, c2 := m.l2.Forward(a, bw)
	return tensor.SoftmaxVec(logits.Row(0)), c1, c2, cr
}

func (m *mlp) LossAndBackward(ids []int, label bool) float64 {
	p, c1, c2, cr := m.forward(ids, &m.bw)
	y := 0
	if label {
		y = 1
	}
	dLogits := tensor.FromSlice(1, 2, []float64{p[0], p[1]})
	dLogits.Data[y]--
	da := m.l2.Backward(c2, dLogits, &m.bw)
	dh := nn.ReLUBackward(cr, da, &m.bw)
	m.l1.Backward(c1, dh, &m.bw)
	m.bw.Release()
	return -math.Log(math.Max(p[y], 1e-12))
}

func (m *mlp) PredictBatchProbs(batch [][]int) [][2]float64 {
	out := make([][2]float64, len(batch))
	var bw nn.Borrows // callers may evaluate one model concurrently
	for i, ids := range batch {
		p, _, _, _ := m.forward(ids, &bw)
		out[i] = [2]float64{p[0], p[1]}
		bw.Release()
	}
	return out
}

// mlpData builds a deterministic synthetic set with both label classes.
func mlpData(n, length int, seed int64) []Example {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Example, n)
	for i := range out {
		ids := make([]int, length)
		sum := 0
		for t := range ids {
			ids[t] = rng.Intn(997)
			sum += ids[t]
		}
		out[i] = Example{IDs: ids, Label: sum%2 == 0}
	}
	return out
}

func fitMLP(workers, epochs int) History {
	m := newMLP(32, 64, 9)
	trainSet := mlpData(60, 10, 1)
	validSet := mlpData(20, 10, 2)
	return Fit(m, trainSet, validSet, Config{
		Epochs: epochs, BatchSize: 8, LR: 5e-3, ClipNorm: 1, Seed: 4, Workers: workers,
	})
}

// TestFitParallelMatchesSequential asserts the determinism contract inside
// the train package itself: 4 workers reproduce the 1-worker History with
// losses within 1e-9 and the same best epoch.
func TestFitParallelMatchesSequential(t *testing.T) {
	h1 := fitMLP(1, 4)
	h4 := fitMLP(4, 4)
	if h1.BestEpoch != h4.BestEpoch {
		t.Errorf("best epoch %d vs %d", h1.BestEpoch, h4.BestEpoch)
	}
	for i := range h1.Epochs {
		if d := math.Abs(h1.Epochs[i].TrainLoss - h4.Epochs[i].TrainLoss); d > 1e-9 {
			t.Errorf("epoch %d train loss drift %.3g", i, d)
		}
		if d := math.Abs(h1.Epochs[i].ValidLoss - h4.Epochs[i].ValidLoss); d > 1e-9 {
			t.Errorf("epoch %d valid loss drift %.3g", i, d)
		}
	}
}

// TestFitWorkersMoreThanExamples: worker count beyond the dataset size must
// clamp rather than spin up idle replicas or crash on empty shards.
func TestFitWorkersMoreThanExamples(t *testing.T) {
	m := newMLP(16, 16, 1)
	set := mlpData(3, 6, 3)
	h := Fit(m, set, set, Config{Epochs: 2, BatchSize: 2, LR: 1e-2, Seed: 1, Workers: 8})
	if len(h.Epochs) != 2 {
		t.Fatalf("epochs = %d", len(h.Epochs))
	}
	for _, e := range h.Epochs {
		if math.IsNaN(e.TrainLoss) || math.IsNaN(e.ValidLoss) {
			t.Fatalf("NaN loss in %+v", e)
		}
	}
}

// TestFitNonReplicableFallsBack: a model without Replicate must train on the
// sequential path and produce the identical History regardless of Workers.
func TestFitNonReplicableFallsBack(t *testing.T) {
	run := func(workers int) History {
		m, trainSet, validSet := makeSep()
		return Fit(m, trainSet, validSet, Config{Epochs: 3, BatchSize: 8, LR: 0.05, Seed: 2, Workers: workers})
	}
	h1, h4 := run(1), run(4)
	for i := range h1.Epochs {
		if h1.Epochs[i] != h4.Epochs[i] {
			t.Fatalf("non-replicable model diverged with Workers set: %+v vs %+v",
				h1.Epochs[i], h4.Epochs[i])
		}
	}
}

// TestEvaluateParallelMatches: sharded evaluation over a concurrency-safe
// model must agree with the sequential Evaluate.
func TestEvaluateParallelMatches(t *testing.T) {
	m := newMLP(32, 64, 5)
	set := mlpData(37, 10, 8) // odd size: exercises the ragged last shard
	l1, a1 := Evaluate(m, set)
	for _, w := range []int{2, 3, 4, 64} {
		lw, aw := EvaluateParallel(m, set, w)
		if math.Abs(lw-l1) > 1e-9 || aw != a1 {
			t.Errorf("workers=%d: loss %.12f vs %.12f, acc %.3f vs %.3f", w, lw, l1, aw, a1)
		}
	}
}

// BenchmarkFitWorkers measures one training epoch of the matmul-heavy MLP
// at data-parallel widths 1, 2 and 4; the ratio of ns/op between the /1 and
// /4 cases is the engine's speedup on the host. Run with -cpu to pin
// GOMAXPROCS.
func BenchmarkFitWorkers(b *testing.B) {
	trainSet := mlpData(256, 24, 1)
	validSet := mlpData(32, 24, 2)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprint(w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m := newMLP(64, 512, 9)
				Fit(m, trainSet, validSet, Config{
					Epochs: 1, BatchSize: 32, LR: 1e-3, Seed: 4, Workers: w,
				})
			}
		})
	}
}
