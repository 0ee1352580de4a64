package train

import (
	"errors"
	"fmt"

	"pragformer/internal/ckpt"
	"pragformer/internal/nn"
)

// Checkpoint/resume: Run is Fit with checkpoint I/O errors surfaced;
// Resume continues a run from the snapshot at cfg.CheckpointPath. The
// determinism contract extends the parallel engine's across process
// restarts: a run killed at any epoch boundary and resumed at the same
// (seed, W) produces bit-identical weights and History to an uninterrupted
// run, because the checkpoint captures every stateful piece of the trainer
// — weights, AdamW moments and step, the Fisher-Yates shuffler, and each
// replica's dropout stream — and the example order is replayed, not
// approximated.

// ErrInterrupted is returned by Run/Resume when cfg.Interrupt fires. The
// returned History covers the epochs completed before the interrupt, and
// when checkpointing is configured the file at cfg.CheckpointPath covers
// exactly those epochs.
var ErrInterrupted = errors.New("train: interrupted")

// RNGStateful is the optional Model capability checkpointing uses to
// capture and restore the model's internal noise stream (dropout).
// Implemented by core.PragFormer. Models without it (dropout-free toy
// models) checkpoint and resume fine — there is no stream to save.
type RNGStateful interface {
	RNGState() uint64
	SetRNGState(uint64)
}

// Run trains like Fit but surfaces checkpoint I/O errors and interrupts.
// A failed checkpoint write aborts the run: a caller that asked for
// durable training must not believe it has it when the disk is full.
func Run(m Model, trainSet, validSet []Example, cfg Config) (History, error) {
	cfg.fillDefaults()
	return run(m, trainSet, validSet, cfg, nil)
}

// Resume loads the checkpoint at cfg.CheckpointPath and continues the run
// it captured. The model must be freshly constructed with the same
// architecture and seed, and trainSet/validSet must be the identical
// datasets — seed and worker-count mismatches are rejected outright, and a
// diverging training set is caught by replaying the shuffle stream. On a
// finished checkpoint Resume runs no epoch: the model ends as the finished
// run left it, RestoreBest included, with the run's History.
func Resume(m Model, trainSet, validSet []Example, cfg Config) (History, error) {
	cfg.fillDefaults()
	if cfg.CheckpointPath == "" {
		return History{}, fmt.Errorf("train: Resume requires Config.CheckpointPath")
	}
	snap, err := ckpt.LoadFile(cfg.CheckpointPath)
	if err != nil {
		return History{}, err
	}
	return run(m, trainSet, validSet, cfg, snap)
}

// checkpointer carries the write-side state: the target path and the epoch
// stride.
type checkpointer struct {
	path  string
	every int
}

// newCheckpointer returns nil when the config does not checkpoint.
func newCheckpointer(cfg Config) *checkpointer {
	if cfg.CheckpointPath == "" {
		return nil
	}
	return &checkpointer{path: cfg.CheckpointPath, every: cfg.CheckpointEvery}
}

// restoreRun applies a snapshot to the trainer state:
// weights, optimizer, shuffler, history, and best-weights tracking. The
// shuffle stream is replayed rather than blindly restored — epoch N's
// shuffle permutes the output of epoch N-1's, so the order slice must pass
// through every prior epoch; the replayed state is then checked against
// the snapshot, which catches resuming against a different training set.
// A nil snap is a fresh run and restores nothing.
func restoreRun(snap *ckpt.Snapshot, cfg Config, workers int,
	params []*nn.Param, opt *AdamW, rng *shuffler, order []int, st *runState) error {
	if snap == nil {
		return nil
	}
	if snap.Seed != cfg.Seed {
		return fmt.Errorf("train: checkpoint written with seed %d, resuming with seed %d", snap.Seed, cfg.Seed)
	}
	if snap.Workers != workers {
		return fmt.Errorf("train: checkpoint written with %d workers, resuming with %d — bit-identical resume holds only at the same (seed, W)",
			snap.Workers, workers)
	}
	if err := snap.ApplyWeights(params, snap.Weights); err != nil {
		return err
	}
	if err := opt.SetState(params, snap.OptStep, snap.OptM, snap.OptV); err != nil {
		return err
	}
	for i := 0; i < snap.NextEpoch; i++ {
		rng.shuffle(order)
	}
	if rng.state != snap.Shuffler {
		return fmt.Errorf("train: replayed shuffle stream diverges from checkpoint — the training set differs from the checkpointed run")
	}
	st.h = History{Epochs: statsOf(snap.Epochs), BestEpoch: snap.BestEpoch}
	st.bestLoss = snap.BestLoss
	st.step = snap.OptStep
	st.epoch = snap.NextEpoch
	st.bestW = snap.BestWeights
	return nil
}

// restoreRNGs restores each model's dropout stream (primary first, then
// replicas, matching capture order). Safe on nil snapshots and models
// without the capability.
func restoreRNGs(snap *ckpt.Snapshot, models []Model) {
	if snap == nil {
		return
	}
	for i, s := range snap.RNG {
		if i >= len(models) {
			return
		}
		if rs, ok := models[i].(RNGStateful); ok {
			rs.SetRNGState(s)
		}
	}
}

// afterEpoch runs the end-of-epoch bookkeeping:
// best-weights tracking, due checkpoint writes, and interrupt polling.
// stop reports that the run should end now; err is ErrInterrupted and/or a
// checkpoint write failure.
func afterEpoch(ck *checkpointer, cfg Config, st *runState, models []Model,
	params []*nn.Param, opt *AdamW, rng *shuffler, epoch int) (stop bool, err error) {
	if (ck != nil || cfg.RestoreBest) && st.h.BestEpoch == epoch {
		st.bestW = ckpt.CopyWeights(params)
	}
	interrupted := false
	if cfg.Interrupt != nil {
		select {
		case <-cfg.Interrupt:
			interrupted = true
		default:
		}
	}
	if ck != nil {
		due := (epoch+1)%ck.every == 0 || epoch == cfg.Epochs-1 || interrupted
		if due {
			if werr := ck.write(cfg, st, models, params, opt, rng, epoch+1); werr != nil {
				if interrupted {
					return true, errors.Join(ErrInterrupted, werr)
				}
				return true, werr
			}
		}
	}
	if interrupted {
		return true, ErrInterrupted
	}
	return false, nil
}

// restoreBest applies the tracked best-epoch weights to params at a
// normal run completion when cfg.RestoreBest asks for model selection.
func (st *runState) restoreBest(cfg Config, params []*nn.Param) {
	if !cfg.RestoreBest || len(st.bestW) != len(params) {
		return
	}
	for i, p := range params {
		copy(p.W.Data, st.bestW[i])
	}
}

// write captures the full trainer state into a snapshot and persists it
// atomically.
func (ck *checkpointer) write(cfg Config, st *runState, models []Model,
	params []*nn.Param, opt *AdamW, rng *shuffler, nextEpoch int) error {
	snap := &ckpt.Snapshot{
		Seed:      cfg.Seed,
		Workers:   len(models),
		NextEpoch: nextEpoch,
		Shuffler:  rng.state,
		BestLoss:  st.bestLoss,
		BestEpoch: st.h.BestEpoch,
		Epochs:    recordsOf(st.h.Epochs),
	}
	snap.OptStep, snap.OptM, snap.OptV = opt.State(params)
	snap.CaptureParams(params)
	snap.BestWeights = st.bestW
	for _, m := range models {
		rs, ok := m.(RNGStateful)
		if !ok {
			break // replicas share the primary's type: all or none
		}
		snap.RNG = append(snap.RNG, rs.RNGState())
	}
	return snap.SaveFile(ck.path)
}

// recordsOf converts the in-memory learning curve to the wire mirror.
func recordsOf(es []EpochStats) []ckpt.EpochRecord {
	out := make([]ckpt.EpochRecord, len(es))
	for i, e := range es {
		out[i] = ckpt.EpochRecord{Epoch: e.Epoch, TrainLoss: e.TrainLoss,
			ValidLoss: e.ValidLoss, ValidAccuracy: e.ValidAccuracy}
	}
	return out
}

// statsOf converts wire records back to the in-memory learning curve.
func statsOf(rs []ckpt.EpochRecord) []EpochStats {
	out := make([]EpochStats, len(rs))
	for i, r := range rs {
		out[i] = EpochStats{Epoch: r.Epoch, TrainLoss: r.TrainLoss,
			ValidLoss: r.ValidLoss, ValidAccuracy: r.ValidAccuracy}
	}
	return out
}
