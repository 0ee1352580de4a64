package train

import (
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"pragformer/internal/nn"
	"pragformer/internal/tensor"
)

// quadModel is a 1-parameter model with loss (w - target)²; its analytic
// minimum makes optimizer behaviour easy to verify.
type quadModel struct {
	w      *nn.Param
	target float64
}

func newQuad(target float64) *quadModel {
	return &quadModel{
		w:      &nn.Param{Name: "w", W: tensor.New(1, 1), Grad: tensor.New(1, 1)},
		target: target,
	}
}

func (q *quadModel) Params() []*nn.Param { return []*nn.Param{q.w} }

func (q *quadModel) LossAndBackward(ids []int, label bool) float64 {
	d := q.w.W.Data[0] - q.target
	q.w.Grad.Data[0] += 2 * d
	return d * d
}

func TestAdamWConverges(t *testing.T) {
	q := newQuad(3)
	opt := NewAdamW(0.1)
	opt.WeightDecay = 0
	for i := 0; i < 500; i++ {
		ZeroGrads(q.Params())
		q.LossAndBackward(nil, false)
		OptStep(opt, q.Params(), 1, 0, 1)
	}
	if math.Abs(q.w.W.Data[0]-3) > 0.05 {
		t.Fatalf("w = %g, want ≈ 3", q.w.W.Data[0])
	}
}

func TestWeightDecayPullsTowardZero(t *testing.T) {
	// With no gradient signal, decay alone should shrink the weight.
	p := &nn.Param{Name: "w", W: tensor.FromSlice(1, 1, []float64{5}), Grad: tensor.New(1, 1)}
	opt := NewAdamW(0.01)
	for i := 0; i < 200; i++ {
		OptStep(opt, []*nn.Param{p}, 1, 0, 1)
	}
	if math.Abs(p.W.Data[0]) >= 5 {
		t.Fatalf("decay did not shrink weight: %g", p.W.Data[0])
	}
	// NoDecay params stay put under zero gradient.
	p2 := &nn.Param{Name: "b", W: tensor.FromSlice(1, 1, []float64{5}), Grad: tensor.New(1, 1), NoDecay: true}
	opt2 := NewAdamW(0.01)
	OptStep(opt2, []*nn.Param{p2}, 1, 0, 1)
	if p2.W.Data[0] != 5 {
		t.Fatalf("NoDecay param moved: %g", p2.W.Data[0])
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &nn.Param{Name: "w", W: tensor.New(1, 2), Grad: tensor.FromSlice(1, 2, []float64{3, 4})}
	norm, scale := clipScale([]*nn.Param{p}, 1, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Errorf("pre-clip norm = %g", norm)
	}
	if got := norm * scale; math.Abs(got-1) > 1e-12 || scale != 0.2 {
		t.Errorf("clip scale = %g, post-clip norm %g", scale, got)
	}
	// Below the threshold, gradients are untouched.
	p2 := &nn.Param{Name: "w", W: tensor.New(1, 1), Grad: tensor.FromSlice(1, 1, []float64{0.5})}
	if _, scale := clipScale([]*nn.Param{p2}, 1, 1); scale != 1 {
		t.Errorf("small gradient scaled by %g", scale)
	}
	if p2.Grad.Data[0] != 0.5 {
		t.Error("small gradient was modified")
	}
}

func TestWarmupScale(t *testing.T) {
	if WarmupScale(0, 10) != 0.1 {
		t.Errorf("scale(0,10) = %g", WarmupScale(0, 10))
	}
	if WarmupScale(9, 10) != 1 {
		t.Errorf("scale(9,10) = %g", WarmupScale(9, 10))
	}
	if WarmupScale(100, 10) != 1 || WarmupScale(5, 0) != 1 {
		t.Error("post-warmup scale must be 1")
	}
}

// sepModel is a linear model over 2 features used to exercise Fit.
type sepModel struct {
	w *nn.Param
}

func (s *sepModel) Params() []*nn.Param { return []*nn.Param{s.w} }

func (s *sepModel) logit(ids []int) float64 {
	z := 0.0
	for _, id := range ids {
		z += s.w.W.Data[id%2] * float64(1+id%3)
	}
	return z
}

func (s *sepModel) LossAndBackward(ids []int, label bool) float64 {
	p := 1 / (1 + math.Exp(-s.logit(ids)))
	y := 0.0
	if label {
		y = 1
	}
	g := p - y
	for _, id := range ids {
		s.w.Grad.Data[id%2] += g * float64(1+id%3)
	}
	return -(y*math.Log(math.Max(p, 1e-12)) + (1-y)*math.Log(math.Max(1-p, 1e-12)))
}

func (s *sepModel) PredictBatchProbs(batch [][]int) [][2]float64 {
	out := make([][2]float64, len(batch))
	for i, ids := range batch {
		p := 1 / (1 + math.Exp(-s.logit(ids)))
		out[i] = [2]float64{1 - p, p}
	}
	return out
}

func makeSep() (*sepModel, []Example, []Example) {
	m := &sepModel{w: &nn.Param{Name: "w", W: tensor.New(1, 2), Grad: tensor.New(1, 2)}}
	rng := rand.New(rand.NewSource(4))
	var trainSet, validSet []Example
	for i := 0; i < 80; i++ {
		pos := Example{IDs: []int{0, 0, 2}, Label: true}  // feature 0 heavy
		neg := Example{IDs: []int{1, 1, 3}, Label: false} // feature 1 heavy
		if rng.Intn(10) == 0 {
			pos, neg = neg, pos // label noise
		}
		if i < 60 {
			trainSet = append(trainSet, pos, neg)
		} else {
			validSet = append(validSet, pos, neg)
		}
	}
	return m, trainSet, validSet
}

func TestFitLearns(t *testing.T) {
	m, trainSet, validSet := makeSep()
	var progressLines []string
	h := Fit(m, trainSet, validSet, Config{
		Epochs: 8, BatchSize: 8, LR: 0.05, Seed: 1,
		Progress: func(s string) { progressLines = append(progressLines, s) },
	})
	if len(h.Epochs) != 8 {
		t.Fatalf("epochs = %d", len(h.Epochs))
	}
	if h.Epochs[7].TrainLoss >= h.Epochs[0].TrainLoss {
		t.Errorf("train loss did not fall: %v → %v", h.Epochs[0].TrainLoss, h.Epochs[7].TrainLoss)
	}
	best := h.Best()
	if best.ValidAccuracy < 0.8 {
		t.Errorf("best valid accuracy = %.3f", best.ValidAccuracy)
	}
	if len(progressLines) != 8 {
		t.Errorf("progress lines = %d", len(progressLines))
	}
}

func TestFitDeterministic(t *testing.T) {
	run := func() History {
		m, trainSet, validSet := makeSep()
		return Fit(m, trainSet, validSet, Config{Epochs: 4, BatchSize: 4, LR: 0.05, Seed: 3})
	}
	h1, h2 := run(), run()
	for i := range h1.Epochs {
		if h1.Epochs[i].TrainLoss != h2.Epochs[i].TrainLoss {
			t.Fatal("training not deterministic under equal seeds")
		}
	}
}

func TestBestEpochSelection(t *testing.T) {
	h := History{Epochs: []EpochStats{
		{Epoch: 0, ValidLoss: 0.9},
		{Epoch: 1, ValidLoss: 0.4},
		{Epoch: 2, ValidLoss: 0.6},
	}}
	// Reconstruct the selection rule.
	best := 0
	lo := math.Inf(1)
	for i, e := range h.Epochs {
		if e.ValidLoss < lo {
			lo = e.ValidLoss
			best = i
		}
	}
	if best != 1 {
		t.Fatalf("best = %d", best)
	}
}

func TestHistoryString(t *testing.T) {
	h := History{Epochs: []EpochStats{{Epoch: 0, ValidLoss: 2}, {Epoch: 1, ValidLoss: 1}}, BestEpoch: 1}
	if h.Best() != h.Epochs[1] {
		t.Errorf("Best = %+v, want epoch 1", h.Best())
	}
	var empty History
	if empty.Best() != (EpochStats{}) {
		t.Error("empty history Best should be zero")
	}
}

func TestEvaluateEmpty(t *testing.T) {
	m, _, _ := makeSep()
	l, a := Evaluate(m, nil)
	if l != 0 || a != 0 {
		t.Fatal("empty evaluate should be zero")
	}
}

// TestRestoreBestWithoutCheckpoint: model selection needs no checkpoint. A
// RestoreBest run without CheckpointPath ends on the weights and History of
// one with it, and those weights are the best epoch's, not the last one's.
func TestRestoreBestWithoutCheckpoint(t *testing.T) {
	validSet := mlpData(20, 10, 2)
	fit := func(cfg Config) (Model, History) {
		m := newMLP(32, 64, 9)
		h, err := Run(m, mlpData(60, 10, 1), validSet, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m, h
	}
	cfg := Config{Epochs: 6, BatchSize: 8, LR: 5e-2, ClipNorm: 1, Seed: 4, RestoreBest: true}
	mem, hMem := fit(cfg)
	cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
	disk, hDisk := fit(cfg)
	cfg.CheckpointPath, cfg.RestoreBest = "", false
	last, hLast := fit(cfg)

	if hMem.BestEpoch == len(hMem.Epochs)-1 {
		t.Fatalf("best epoch %d is the last: the run cannot tell selection from no selection", hMem.BestEpoch)
	}
	if !reflect.DeepEqual(hMem, hDisk) || !reflect.DeepEqual(hMem, hLast) {
		t.Errorf("histories differ:\nno checkpoint %+v\ncheckpoint    %+v\nno selection  %+v", hMem, hDisk, hLast)
	}
	if got, want := weightsDigest(mem), weightsDigest(disk); got != want {
		t.Errorf("weights without a checkpoint %s, with one %s", got, want)
	}
	if weightsDigest(mem) == weightsDigest(last) {
		t.Error("RestoreBest left the last epoch's weights")
	}
	if loss, _ := Evaluate(mem, validSet); loss != hMem.Best().ValidLoss {
		t.Errorf("restored weights score valid loss %v, the best epoch had %v", loss, hMem.Best().ValidLoss)
	}
}

func TestShufflerPermutes(t *testing.T) {
	s := newShuffler(1)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	orig := append([]int{}, xs...)
	s.shuffle(xs)
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != len(orig) {
		t.Fatal("shuffle lost elements")
	}
	same := true
	for i := range xs {
		if xs[i] != orig[i] {
			same = false
		}
	}
	if same {
		t.Error("shuffle did not permute")
	}
}
