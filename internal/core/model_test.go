package core

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"pragformer/internal/nn"
	"pragformer/internal/tensor"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

func tinyConfig() Config {
	return Config{Vocab: 50, MaxLen: 16, D: 8, Heads: 2, Layers: 2, FFHidden: 16, FCHidden: 8, Dropout: 0}
}

func mustNew(t *testing.T, cfg Config, seed int64) *PragFormer {
	t.Helper()
	m, err := New(cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigValidate(t *testing.T) {
	c := Config{Vocab: 100, D: 32, Heads: 4, Layers: 1}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.MaxLen != 110 {
		t.Errorf("default MaxLen = %d, want 110 (the paper's cap)", c.MaxLen)
	}
	if c.FFHidden != 64 || c.FCHidden != 32 {
		t.Errorf("defaults = %+v", c)
	}
	bad := []Config{
		{Vocab: 2, D: 8, Heads: 2, Layers: 1},
		{Vocab: 100, D: 9, Heads: 2, Layers: 1},
		{Vocab: 100, D: 0, Heads: 2, Layers: 1},
	}
	for i, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func TestPredictRange(t *testing.T) {
	m := mustNew(t, tinyConfig(), 1)
	ids := []int{tokenize.CLS, 5, 6, 7}
	p := predictOne(m, ids)
	if p < 0 || p > 1 || math.IsNaN(p) {
		t.Fatalf("p = %g", p)
	}
}

func TestPredictDeterministic(t *testing.T) {
	m := mustNew(t, tinyConfig(), 1)
	ids := []int{tokenize.CLS, 5, 6, 7, 8}
	if predictOne(m, ids) != predictOne(m, ids) {
		t.Fatal("eval-mode prediction not deterministic")
	}
}

func TestLongInputTruncated(t *testing.T) {
	m := mustNew(t, tinyConfig(), 1)
	ids := make([]int, 100) // longer than MaxLen=16
	for i := range ids {
		ids[i] = 4 + i%40
	}
	p := predictOne(m, ids)
	if math.IsNaN(p) {
		t.Fatal("NaN on long input")
	}
	if p != predictOne(m, ids[:16]) {
		t.Error("truncation inconsistent")
	}
}

// TestTrainingReducesLoss is the end-to-end learning sanity check: SGD on a
// single separable pattern must drive the loss down and flip predictions.
func TestTrainingReducesLoss(t *testing.T) {
	m := mustNew(t, tinyConfig(), 2)
	posIDs := []int{tokenize.CLS, 10, 11, 12}
	negIDs := []int{tokenize.CLS, 20, 21, 22}
	set := []train.Example{{IDs: posIDs, Label: true}, {IDs: negIDs, Label: false}}

	lossBefore, _ := train.Evaluate(m, set)
	lr := 0.05
	for step := 0; step < 60; step++ {
		for _, p := range m.Params() {
			p.ZeroGrad()
		}
		m.LossAndBackward(posIDs, true)
		m.LossAndBackward(negIDs, false)
		for _, p := range m.Params() {
			for i := range p.W.Data {
				p.W.Data[i] -= lr * p.Grad.Data[i]
			}
		}
	}
	lossAfter, acc := train.Evaluate(m, set)
	if lossAfter >= lossBefore {
		t.Fatalf("loss did not decrease: %.4f → %.4f", lossBefore, lossAfter)
	}
	if acc != 1 {
		t.Errorf("predictions not separated: pos=%.3f neg=%.3f", predictOne(m, posIDs), predictOne(m, negIDs))
	}
}

func TestLossMatchesPrediction(t *testing.T) {
	m := mustNew(t, tinyConfig(), 3)
	ids := []int{tokenize.CLS, 7, 8}
	p := predictOne(m, ids)
	// tinyConfig has no dropout, so the training forward's loss is -log of p.
	lossPos := m.LossAndBackward(ids, true)
	lossNeg := m.LossAndBackward(ids, false)
	if math.Abs(lossPos+math.Log(p)) > 1e-9 {
		t.Errorf("loss(+) = %g, -log(p) = %g", lossPos, -math.Log(p))
	}
	if math.Abs(lossNeg+math.Log(1-p)) > 1e-6 {
		t.Errorf("loss(-) = %g, -log(1-p) = %g", lossNeg, -math.Log(1-p))
	}
}

func TestMLMPretrainingLearns(t *testing.T) {
	m := mustNew(t, tinyConfig(), 4)
	head := m.NewMLMHead(4)
	rng := rand.New(rand.NewSource(9))
	seqs := [][]int{
		{tokenize.CLS, 10, 11, 12, 13, 10, 11, 12, 13},
		{tokenize.CLS, 20, 21, 22, 23, 20, 21, 22, 23},
	}
	measure := func() float64 {
		mrng := rand.New(rand.NewSource(42))
		total, n := 0.0, 0
		for _, s := range seqs {
			for _, p := range m.MLMParams(head) {
				p.ZeroGrad()
			}
			l, k := m.MLMLossAndBackward(head, s, mrng)
			if k > 0 {
				total += l
				n++
			}
		}
		return total / float64(n)
	}
	before := measure()
	lr := 0.05
	for step := 0; step < 80; step++ {
		for _, p := range m.MLMParams(head) {
			p.ZeroGrad()
		}
		for _, s := range seqs {
			m.MLMLossAndBackward(head, s, rng)
		}
		for _, p := range m.MLMParams(head) {
			for i := range p.W.Data {
				p.W.Data[i] -= lr * p.Grad.Data[i]
			}
		}
	}
	after := measure()
	if after >= before {
		t.Fatalf("MLM loss did not decrease: %.4f → %.4f", before, after)
	}
}

func TestMLMNoTargets(t *testing.T) {
	m := mustNew(t, tinyConfig(), 5)
	// Sequence of length 1 ([CLS] only) can never mask anything.
	l, n := m.MLMLossAndBackward(m.NewMLMHead(5), []int{tokenize.CLS}, rand.New(rand.NewSource(1)))
	if l != 0 || n != 0 {
		t.Fatalf("l=%g n=%d", l, n)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := mustNew(t, tinyConfig(), 6)
	ids := []int{tokenize.CLS, 9, 8, 7}
	want := predictOne(m, ids)

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := predictOne(m2, ids); got != want {
		t.Fatalf("prediction after load = %g, want %g", got, want)
	}
}

func TestSaveLoadFile(t *testing.T) {
	m := mustNew(t, tinyConfig(), 7)
	path := t.TempDir() + "/model.gob"
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ids := []int{tokenize.CLS, 4, 5}
	if predictOne(m, ids) != predictOne(m2, ids) {
		t.Fatal("file round trip changed predictions")
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected error")
	}
}

func TestCopyEncoderFrom(t *testing.T) {
	pre := mustNew(t, tinyConfig(), 8)
	fine := mustNew(t, tinyConfig(), 99)
	ids := []int{tokenize.CLS, 5, 6}

	// Perturb the pretrained encoder so the copy is observable.
	for _, p := range pre.EncoderParams() {
		for i := range p.W.Data {
			p.W.Data[i] += 0.1
		}
	}
	before := predictOne(fine, ids)
	if err := fine.CopyEncoderFrom(pre); err != nil {
		t.Fatal(err)
	}
	after := predictOne(fine, ids)
	if before == after {
		t.Error("encoder copy had no effect")
	}
	for i, p := range fine.EncoderParams() {
		src := pre.EncoderParams()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != src.W.Data[j] {
				t.Fatalf("param %s not copied", p.Name)
			}
		}
	}
}

func TestCopyEncoderShapeMismatch(t *testing.T) {
	a := mustNew(t, tinyConfig(), 1)
	cfg := tinyConfig()
	cfg.D = 16
	cfg.FFHidden = 32
	b := mustNew(t, cfg, 1)
	if err := a.CopyEncoderFrom(b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestParamCounts(t *testing.T) {
	m := mustNew(t, tinyConfig(), 1)
	// emb(2) + 2 blocks × 16 + final ln(2) + fc1(2) + fc2(2) = 40.
	if n := len(m.Params()); n != 40 {
		t.Errorf("params = %d, want 40", n)
	}
	if n := len(m.MLMParams(m.NewMLMHead(1))); n != 38 {
		t.Errorf("mlm params = %d, want 38", n)
	}
	// No duplicates.
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Errorf("duplicate param %s", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestDropoutModelStillInRange(t *testing.T) {
	cfg := tinyConfig()
	cfg.Dropout = 0.3
	m := mustNew(t, cfg, 11)
	ids := []int{tokenize.CLS, 5, 6, 7}
	// Training forward uses dropout internally; loss must stay finite.
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
	l := m.LossAndBackward(ids, true)
	if math.IsNaN(l) || math.IsInf(l, 0) {
		t.Fatalf("loss = %g", l)
	}
}

// fullRowsLossAndBackward is LossAndBackward with the last block run over
// every row: the head reads row 0 of the T-row hidden state and the
// backward starts from a T-row dHidden that is zero past row 0.
func fullRowsLossAndBackward(m *PragFormer, ids []int, label bool) float64 {
	if len(ids) > m.Cfg.MaxLen {
		ids = ids[:m.Cfg.MaxLen]
	}
	bw := new(nn.Borrows)
	defer bw.Release()
	x := m.Emb.Forward(ids, bw)
	caches := make([]*nn.BlockCache, len(m.Blocks))
	for l, b := range m.Blocks {
		x, caches[l] = b.Forward(x, x.Rows, true, m.rng, bw)
	}
	hidden, lnc := m.FinalLN.Forward(x, bw)
	h, c1 := m.FC1.Forward(tensor.FromSlice(1, m.Cfg.D, hidden.Row(0)), bw)
	a, cr := nn.ReLU(h, bw)
	a, cd := nn.Dropout(a, m.Cfg.Dropout, true, m.rng, bw)
	logits, c2 := m.FC2.Forward(a, bw)
	var p [2]float64
	tensor.SoftmaxVecInto(p[:], logits.Row(0))
	y := 0
	if label {
		y = 1
	}
	dLogits := tensor.FromSlice(1, 2, []float64{p[0], p[1]})
	dLogits.Data[y] -= 1
	da := nn.DropoutBackward(cd, m.FC2.Backward(c2, dLogits, bw), bw)
	dCls := m.FC1.Backward(c1, nn.ReLUBackward(cr, da, bw), bw)
	dHidden := tensor.New(len(ids), m.Cfg.D)
	copy(dHidden.Row(0), dCls.Row(0))
	dx := m.FinalLN.Backward(lnc, dHidden, bw)
	for l := len(m.Blocks) - 1; l >= 0; l-- {
		dx = m.Blocks[l].Backward(caches[l], dx, bw)
	}
	m.Emb.Backward(ids, dx)
	return -math.Log(math.Max(p[y], 1e-12))
}

// TestLossAndBackwardMatchesFullRows holds the [CLS]-row training step to
// the one that runs the last block over every row: the same losses, the
// same parameter gradients bit for bit and the same dropout stream
// position, at depths 1 to 3 with dropout off and on.
func TestLossAndBackwardMatchesFullRows(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// A lone [CLS], ragged lengths, and one past MaxLen 16 (truncated).
	seqs := append(raggedIDs(rng, 6, 2, 16, 50), []int{tokenize.CLS}, raggedIDs(rng, 1, 20, 20, 50)[0])
	for layers := 1; layers <= 3; layers++ {
		for _, drop := range []float64{0, 0.1} {
			cfg := tinyConfig()
			cfg.Layers, cfg.Dropout = layers, drop
			got, want := mustNew(t, cfg, 22), mustNew(t, cfg, 22)
			for i, ids := range seqs {
				label := i%2 == 0
				if lg, lw := got.LossAndBackward(ids, label), fullRowsLossAndBackward(want, ids, label); lg != lw {
					t.Fatalf("layers %d drop %g seq %d: loss %v, full rows %v", layers, drop, i, lg, lw)
				}
			}
			if got.RNGState() != want.RNGState() {
				t.Errorf("layers %d drop %g: dropout stream at %x, full rows leave it at %x",
					layers, drop, got.RNGState(), want.RNGState())
			}
			wp := want.Params()
			for k, p := range got.Params() {
				for j, g := range p.Grad.Data {
					if math.Float64bits(g) != math.Float64bits(wp[k].Grad.Data[j]) {
						t.Fatalf("layers %d drop %g: %s grad[%d] = %v, full rows %v",
							layers, drop, p.Name, j, g, wp[k].Grad.Data[j])
					}
				}
			}
		}
	}
}

// demoShapeModel is the demo classifier's shape (advisor.TrainDemo) with
// one input at the paper's 110-token cap.
func demoShapeModel(tb testing.TB) (*PragFormer, []int) {
	m, err := New(Config{Vocab: 3000, D: 32, Heads: 4, Layers: 1}, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ids := make([]int, DefaultMaxLen)
	ids[0] = tokenize.CLS
	for i := 1; i < len(ids); i++ {
		ids[i] = 4 + i
	}
	return m, ids
}

// TestLossAndBackwardBytes bounds one training step at the demo shape, on
// both objectives. Every activation and backward temporary of a step is
// borrowed from the tensor pool and returned when the step does, so what a
// warm step allocates is its small cache headers alone: about 0.6 KB for
// the classifier step (244 KB when each matrix was a fresh allocation) and
// about 1.9 KB for the MLM step (7.7 MB, most of it the two 110×3,000
// logit matrices). 16 KB is the line for both.
func TestLossAndBackwardBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis")
	}
	const limit = 16 << 10
	m, ids := demoShapeModel(t)
	if got := bytesPerStep(func(i int) { m.LossAndBackward(ids, i%2 == 0) }); got > limit {
		t.Errorf("LossAndBackward at the demo shape allocated %d B per step, limit %d", got, limit)
	}
	head, rng := m.NewMLMHead(2), rand.New(rand.NewSource(3))
	if got := bytesPerStep(func(int) { m.MLMLossAndBackward(head, ids, rng) }); got > limit {
		t.Errorf("MLMLossAndBackward at the demo shape allocated %d B per step, limit %d", got, limit)
	}
}

// bytesPerStep runs step once to allocate the gradients and warm the pools,
// then returns the median bytes allocated by eleven more calls. The median,
// because a sync.Pool slot is per processor: a step that finds its
// goroutine moved to another one can miss a buffer the last step left in
// the first one's slot and allocate it afresh, once, while a leak shows in
// every step.
func bytesPerStep(step func(i int)) uint64 {
	step(0)
	var got [11]uint64
	var before, after runtime.MemStats
	for i := range got {
		runtime.ReadMemStats(&before)
		step(i + 1)
		runtime.ReadMemStats(&after)
		got[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(got[:])
	return got[len(got)/2]
}

func BenchmarkPredict(b *testing.B) {
	cfg := Config{Vocab: 3000, MaxLen: 110, D: 64, Heads: 4, Layers: 2}
	m, err := New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 34)
	ids[0] = tokenize.CLS
	for i := 1; i < len(ids); i++ {
		ids[i] = 4 + i
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		predictOne(m, ids)
	}
}

func BenchmarkLossAndBackward(b *testing.B) {
	cfg := Config{Vocab: 3000, MaxLen: 110, D: 64, Heads: 4, Layers: 2}
	m, err := New(cfg, 1)
	if err != nil {
		b.Fatal(err)
	}
	ids := make([]int, 34)
	ids[0] = tokenize.CLS
	for i := 1; i < len(ids); i++ {
		ids[i] = 4 + i
	}
	b.Run("layers=2,T=34", func(b *testing.B) { benchLossAndBackward(b, m, ids) })
	b.Run("demo,T=110", func(b *testing.B) {
		m, ids := demoShapeModel(b)
		benchLossAndBackward(b, m, ids)
	})
}

func benchLossAndBackward(b *testing.B, m *PragFormer, ids []int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.LossAndBackward(ids, i%2 == 0)
	}
}
