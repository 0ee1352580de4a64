// Package train implements the optimization stack from the paper's §4.3:
// the AdamW optimizer (Loshchilov & Hutter), gradient clipping, a linear
// warmup learning-rate schedule, and an epoch-driven trainer that records
// the train-loss / validation-loss / validation-accuracy curves of
// Figures 4–6 and selects the best epoch by validation loss.
package train

import (
	"errors"
	"fmt"
	"math"

	"pragformer/internal/ckpt"
	"pragformer/internal/nn"
	"pragformer/internal/tensor"
)

// AdamW is the decoupled-weight-decay Adam optimizer: its hyperparameters
// and the moments it keeps between steps. OptStep applies it.
type AdamW struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    map[*nn.Param][]float64
	v    map[*nn.Param][]float64
}

// NewAdamW returns an optimizer with the usual defaults.
func NewAdamW(lr float64) *AdamW {
	return &AdamW{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: 0.01,
		m: map[*nn.Param][]float64{},
		v: map[*nn.Param][]float64{},
	}
}

// State exports the optimizer's step count and first/second moments in
// params order (deep copies), the checkpointing surface. Parameters the
// optimizer has not yet touched export empty moment vectors.
func (o *AdamW) State(params []*nn.Param) (step int, m, v [][]float64) {
	m = make([][]float64, len(params))
	v = make([][]float64, len(params))
	for i, p := range params {
		if mv := o.m[p]; mv != nil {
			m[i] = append([]float64(nil), mv...)
			v[i] = append([]float64(nil), o.v[p]...)
		}
	}
	return o.step, m, v
}

// SetState restores optimizer state captured by State onto params (same
// order), validating every moment vector length against its parameter.
func (o *AdamW) SetState(params []*nn.Param, step int, m, v [][]float64) error {
	if len(m) != len(params) || len(v) != len(params) {
		return fmt.Errorf("train: optimizer state has %d/%d moment vectors, model has %d params",
			len(m), len(v), len(params))
	}
	for i, p := range params {
		if len(m[i]) == 0 && len(v[i]) == 0 {
			continue // parameter untouched when the state was captured
		}
		if len(m[i]) != len(p.W.Data) || len(v[i]) != len(p.W.Data) {
			return fmt.Errorf("train: optimizer state for %q has %d/%d values, want %d",
				p.Name, len(m[i]), len(v[i]), len(p.W.Data))
		}
	}
	o.step = step
	for i, p := range params {
		if len(m[i]) == 0 && len(v[i]) == 0 {
			delete(o.m, p)
			delete(o.v, p)
			continue
		}
		o.m[p] = append([]float64(nil), m[i]...)
		o.v[p] = append([]float64(nil), v[i]...)
	}
	return nil
}

// ZeroGrads clears all gradient accumulators.
func ZeroGrads(params []*nn.Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ReleaseGrads drops all gradient accumulators: a training loop's last act,
// so the trained model holds weights alone.
func ReleaseGrads(params []*nn.Param) {
	for _, p := range params {
		p.Grad = nil
	}
}

// WarmupScale returns the linear-warmup LR multiplier for a step.
func WarmupScale(step, warmupSteps int) float64 {
	if warmupSteps <= 0 || step >= warmupSteps {
		return 1
	}
	return float64(step+1) / float64(warmupSteps)
}

// EpochStats is one row of the Figures 4–6 series.
type EpochStats struct {
	Epoch         int
	TrainLoss     float64
	ValidLoss     float64
	ValidAccuracy float64
}

// History is the full learning curve.
type History struct {
	Epochs []EpochStats
	// BestEpoch is the epoch index (0-based) with the lowest validation
	// loss — the paper's model-selection rule (§5.1: "the validation loss
	// curve converges after 7–9 epochs ... we choose the models trained up
	// to those points").
	BestEpoch int
}

// Best returns the stats of the selected epoch.
func (h History) Best() EpochStats {
	if len(h.Epochs) == 0 {
		return EpochStats{}
	}
	return h.Epochs[h.BestEpoch]
}

// Example is one training instance: encoded ids and a binary label.
type Example struct {
	IDs   []int
	Label bool
}

// Model is the trainable-classifier surface the trainer needs; implemented
// by core.PragFormer. PredictBatchProbs is the validation forward: both
// class probabilities for every sequence of a batch, touching no gradient.
type Model interface {
	Params() []*nn.Param
	LossAndBackward(ids []int, label bool) float64
	PredictBatchProbs(ids [][]int) [][2]float64
}

// Replicable is the optional Model capability data-parallel training needs:
// a deep copy whose Params() align one-to-one with the original's (same
// order and shapes). seed reseeds any internal randomness (dropout) so
// replicas draw independent streams.
type Replicable interface {
	Model
	Replicate(seed int64) Model
}

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	LR        float64
	Warmup    int     // warmup steps
	ClipNorm  float64 // 0 disables clipping
	Seed      int64
	// Workers is the data-parallel width: each batch is sharded across this
	// many model replicas whose gradients are all-reduced into the primary
	// in fixed replica order. <=1 (or a non-Replicable model) is width 1:
	// one model, every batch run inline on the calling goroutine.
	Workers int
	// Progress, when set, receives one line per epoch.
	Progress func(string)
	// CheckpointPath, when set, makes Run/Resume write a crash-safe
	// internal/ckpt snapshot (weights, full AdamW state, shuffler and
	// dropout RNG streams, History, best-epoch weights) at epoch ends.
	CheckpointPath string
	// CheckpointEvery is the epoch stride between checkpoint writes
	// (default 1). The final epoch and an interrupt always checkpoint.
	CheckpointEvery int
	// RestoreBest leaves the model holding the best-validation-epoch weights
	// when Run/Resume complete normally (instead of the final epoch's) — the
	// paper's model-selection rule, applied from an in-memory copy of the
	// best epoch's weights, the same copy a checkpoint carries. It needs no
	// CheckpointPath. Interrupted runs are unaffected.
	RestoreBest bool
	// Interrupt, when non-nil, is polled at each epoch end; once it fires
	// (closed or sent to), the run writes a final checkpoint if configured
	// and returns ErrInterrupted with the partial History. The SIGINT
	// checkpoint-then-exit path of cmd/pragformer rides on this.
	Interrupt <-chan struct{}
}

// fillDefaults resolves the zero-value knobs Fit historically defaulted.
func (cfg *Config) fillDefaults() {
	if cfg.Epochs <= 0 {
		cfg.Epochs = 10
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.LR == 0 {
		cfg.LR = 3e-4
	}
	if cfg.CheckpointEvery <= 0 {
		cfg.CheckpointEvery = 1
	}
}

// Fit trains the model, returning the learning curve. With cfg.Workers > 1
// and a Replicable model, batches are sharded across replicas; gradient
// reduction order is fixed, so a run is deterministic for a given worker
// count, and (dropout aside) agrees with the sequential run up to
// floating-point summation order.
//
// Fit is the error-free legacy surface: checkpoint I/O failures and
// interrupts (which only arise when the corresponding Config fields are
// set) are reported through Run; Fit logs them to cfg.Progress and returns
// the partial history. Callers that checkpoint should use Run/Resume.
func Fit(m Model, trainSet, validSet []Example, cfg Config) History {
	h, err := Run(m, trainSet, validSet, cfg)
	if err != nil && !errors.Is(err, ErrInterrupted) && cfg.Progress != nil {
		cfg.Progress("checkpoint error: " + err.Error())
	}
	return h
}

// runState is the mutable cross-epoch trainer state — exactly what a
// checkpoint captures (together with weights, optimizer moments, and RNG
// streams).
type runState struct {
	h        History
	bestLoss float64
	step     int // optimizer/warmup step counter
	epoch    int // first epoch the loop runs (nonzero after a resume)
	// bestW copies the best epoch's weights when a checkpoint or RestoreBest
	// needs them: model selection must survive a restart even when the best
	// epoch predates the crash.
	bestW [][]float64
}

// run is the training loop behind Run and Resume, over w model replicas;
// cfg defaults are already filled. w is 1 unless cfg.Workers > 1 and the
// model is Replicable. Replica r owns a contiguous shard of each batch and
// accumulates gradients locally; after the barrier the primary sums
// replica gradients in replica order, steps the optimizer on its own
// parameters only, and broadcasts the updated weights back out. Optimizer
// state therefore lives only on the primary and every floating-point
// reduction has a schedule-independent order: two runs at the same width
// are bit-identical, and different widths agree up to summation-order
// rounding (≪1e-9 on the scales this repo trains).
//
// snap, when non-nil, is a validated checkpoint to resume from: the
// primary's weights and optimizer are restored before the replicas are
// cloned (so the clones start from the restored weights), and every
// replica's dropout stream is then rewound to its checkpointed position —
// the pieces that make the resumed run bit-identical to an uninterrupted
// one at the same (seed, w).
func run(m Model, trainSet, validSet []Example, cfg Config, snap *ckpt.Snapshot) (History, error) {
	w := 1
	rm, replicable := m.(Replicable)
	if replicable && cfg.Workers > 1 {
		// Replicas beyond the batch size (or dataset size) can never receive
		// a shard, so clamping is free: it changes the replica count but not
		// one bit of the result.
		w = min(cfg.Workers, cfg.BatchSize)
		if len(trainSet) > 0 {
			w = min(w, len(trainSet))
		}
	}

	opt := NewAdamW(cfg.LR)
	primary := m.Params()
	order := make([]int, len(trainSet))
	for i := range order {
		order[i] = i
	}
	rng := newShuffler(cfg.Seed)

	st := &runState{bestLoss: math.Inf(1)}
	ck := newCheckpointer(cfg)
	if err := restoreRun(snap, cfg, w, primary, opt, rng, order, st); err != nil {
		return History{}, err
	}

	replicas := make([]Model, w)
	paramSets := make([][]*nn.Param, w)
	replicas[0], paramSets[0] = m, primary
	for r := 1; r < w; r++ {
		replicas[r] = rm.Replicate(cfg.Seed + int64(1000*r))
		paramSets[r] = replicas[r].Params()
	}
	restoreRNGs(snap, replicas)
	// Gradients live as long as this loop: however it ends, the model and
	// every replica leave it without them.
	defer func() {
		for _, ps := range paramSets {
			ReleaseGrads(ps)
		}
	}()

	// lossSum[r] is replica r's loss over the epoch, folded one example at
	// a time in example order — at width 1 the plain running sum.
	lossSum := make([]float64, w)
	for epoch := st.epoch; epoch < cfg.Epochs; epoch++ {
		rng.shuffle(order)
		for r := range paramSets {
			ZeroGrads(paramSets[r])
			lossSum[r] = 0
		}
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			runShards(replicas, batch, trainSet, lossSum)
			for r := 1; r < w; r++ {
				nn.AccumGrads(primary, paramSets[r])
				ZeroGrads(paramSets[r])
			}
			OptStep(opt, primary, len(batch), cfg.ClipNorm, WarmupScale(st.step, cfg.Warmup))
			st.step++
			for r := 1; r < w; r++ {
				nn.CopyWeights(paramSets[r], primary)
			}
		}
		totalLoss := lossSum[0]
		for _, l := range lossSum[1:] {
			totalLoss += l
		}

		stats := EpochStats{Epoch: epoch, TrainLoss: totalLoss / float64(max(1, len(trainSet)))}
		stats.ValidLoss, stats.ValidAccuracy = evaluateModels(replicas, validSet)
		finishEpoch(&st.h, &st.bestLoss, cfg, stats, w)
		if stop, err := afterEpoch(ck, cfg, st, replicas, primary, opt, rng, epoch); stop || err != nil {
			return st.h, err
		}
	}
	st.restoreBest(cfg, primary)
	return st.h, nil
}

// finishEpoch records one epoch's stats, applies the best-validation-loss
// model-selection rule, and fires the Progress callback.
func finishEpoch(h *History, bestLoss *float64, cfg Config, stats EpochStats, workers int) {
	h.Epochs = append(h.Epochs, stats)
	if stats.ValidLoss < *bestLoss {
		*bestLoss = stats.ValidLoss
		h.BestEpoch = stats.Epoch
	}
	if cfg.Progress != nil {
		tag := ""
		if workers > 1 {
			tag = fmt.Sprintf(" [%d workers]", workers)
		}
		cfg.Progress(fmt.Sprintf("epoch %d/%d: train %.4f valid %.4f acc %.3f%s",
			stats.Epoch+1, cfg.Epochs, stats.TrainLoss, stats.ValidLoss, stats.ValidAccuracy, tag))
	}
}

// OptStep is one optimizer step over gradients accumulated from batch
// examples: average them, clip to clipNorm (0 disables clipping), step at
// lrScale times the base rate, and clear the gradients. It reads every
// gradient once for the clip norm (only when clipping) and then makes one
// fused sweep per parameter — tensor.AdamWUpdate — that averages, clips,
// updates the moments and the weight, and zeroes the gradient, each
// element rounded exactly as separate passes would round it.
func OptStep(opt *AdamW, params []*nn.Param, batch int, clipNorm, lrScale float64) {
	inv := 1 / float64(batch)
	scale := 1.0
	if clipNorm > 0 {
		_, scale = clipScale(params, inv, clipNorm)
	}
	opt.step++
	s := tensor.AdamWStep{
		Inv: inv, Scale: scale, Beta1: opt.Beta1, Beta2: opt.Beta2,
		BC1: 1 - math.Pow(opt.Beta1, float64(opt.step)), BC2: 1 - math.Pow(opt.Beta2, float64(opt.step)),
		Eps: opt.Eps, WeightDecay: opt.WeightDecay, LR: opt.LR * lrScale,
	}
	for _, p := range params {
		m := opt.m[p]
		if m == nil {
			m = make([]float64, len(p.W.Data))
			opt.m[p] = m
			opt.v[p] = make([]float64, len(p.W.Data))
		}
		tensor.AdamWUpdate(p.W.Data, p.Gradient().Data, m, opt.v[p], s, !p.NoDecay)
	}
}

// clipScale returns the global L2 norm of the averaged gradients g·inv,
// summed parameter by parameter and element by element without storing
// them, and the factor that brings it down to maxNorm (1 when it is
// already within).
func clipScale(params []*nn.Param, inv, maxNorm float64) (norm, scale float64) {
	total := 0.0
	for _, p := range params {
		total = addSquares(total, p.Gradient().Data, inv)
	}
	norm = math.Sqrt(total)
	if norm > maxNorm && norm > 0 {
		return norm, maxNorm / norm
	}
	return norm, 1
}

// addSquares returns total plus (g·inv)² for each g of gs, added in order,
// skipping every aligned block of 8 elements that are all +0 — most of a
// step's gradient: the token-embedding rows its batch did not touch. The
// skip is exact: with inv finite and positive (1/batch) a +0 element adds
// +0, and adding +0 to a total that is never −0 (it starts at +0 and only
// grows by squares) leaves its bits as they were. A −0, subnormal or NaN
// element sets a bit, so its block is summed.
func addSquares(total float64, gs []float64, inv float64) float64 {
	i := 0
	for ; i+8 <= len(gs); i += 8 {
		b := gs[i : i+8 : i+8]
		if math.Float64bits(b[0])|math.Float64bits(b[1])|math.Float64bits(b[2])|math.Float64bits(b[3])|
			math.Float64bits(b[4])|math.Float64bits(b[5])|math.Float64bits(b[6])|math.Float64bits(b[7]) == 0 {
			continue
		}
		for _, g := range b {
			g *= inv
			total += g * g
		}
	}
	for _, g := range gs[i:] {
		g *= inv
		total += g * g
	}
	return total
}

// evalChunk bounds how many examples one batched forward stacks, keeping
// the pooled activation matrices a bounded size on large validation sets.
const evalChunk = 64

// Evaluate computes mean loss (the binary cross-entropy LossAndBackward
// minimises) and accuracy at the 0.5 threshold over a set.
func Evaluate(m Model, set []Example) (loss, acc float64) {
	return evaluateModels([]Model{m}, set)
}

// evalSums returns the loss sum and correct count over set — one shard of
// evaluateModels — folded in example order over batched forwards.
func evalSums(m Model, set []Example) (lossSum float64, correct int) {
	ids := make([][]int, 0, evalChunk)
	for start := 0; start < len(set); start += evalChunk {
		chunk := set[start:min(start+evalChunk, len(set))]
		ids = ids[:0]
		for _, ex := range chunk {
			ids = append(ids, ex.IDs)
		}
		probs := m.PredictBatchProbs(ids)
		for i, ex := range chunk {
			y := 0
			if ex.Label {
				y = 1
			}
			lossSum += -math.Log(math.Max(probs[i][y], 1e-12))
			if (probs[i][1] > 0.5) == ex.Label {
				correct++
			}
		}
	}
	return lossSum, correct
}

// shuffler is a tiny deterministic Fisher-Yates source.
type shuffler struct{ state uint64 }

func newShuffler(seed int64) *shuffler {
	return &shuffler{state: uint64(seed)*2862933555777941757 + 3037000493}
}

func (s *shuffler) next() uint64 {
	s.state ^= s.state << 13
	s.state ^= s.state >> 7
	s.state ^= s.state << 17
	return s.state
}

func (s *shuffler) shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := int(s.next() % uint64(i+1))
		xs[i], xs[j] = xs[j], xs[i]
	}
}
