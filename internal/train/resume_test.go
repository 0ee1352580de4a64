package train_test

// Interrupt-and-resume parity: the acceptance test for the checkpoint
// subsystem. A run interrupted at an epoch boundary and resumed from its
// checkpoint must be bit-identical — weights and History — to an
// uninterrupted run at the same (seed, W). The model is a real PragFormer
// with dropout enabled, so the test exercises every piece of checkpointed
// state: weights, AdamW moments, the shuffler, and the dropout RNG streams
// of the primary and (for W>1) each replica. It lives in an external test
// package because core imports train.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pragformer/internal/core"
	"pragformer/internal/train"
)

const resumeSeed = 11

func resumeModel(t *testing.T) *core.PragFormer {
	t.Helper()
	m, err := core.New(core.Config{
		Vocab: 24, MaxLen: 16, D: 8, Heads: 2, Layers: 1, Dropout: 0.2,
	}, resumeSeed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func resumeData() (trainSet, validSet []train.Example) {
	// Deterministic synthetic split: label depends on which id range
	// dominates the sequence.
	for i := 0; i < 60; i++ {
		ids := []int{2} // [CLS]
		for j := 0; j < 6; j++ {
			ids = append(ids, 4+(i*7+j*3)%20)
		}
		ex := train.Example{IDs: ids, Label: i%2 == 0}
		if i < 44 {
			trainSet = append(trainSet, ex)
		} else {
			validSet = append(validSet, ex)
		}
	}
	return trainSet, validSet
}

func resumeCfg(workers int, path string) train.Config {
	return train.Config{
		Epochs: 5, BatchSize: 8, LR: 1e-3, ClipNorm: 1, Seed: resumeSeed,
		Workers: workers, CheckpointPath: path,
	}
}

func weightsOf(m *core.PragFormer) [][]float64 {
	var out [][]float64
	for _, p := range m.Params() {
		out = append(out, append([]float64(nil), p.W.Data...))
	}
	return out
}

func testResumeParity(t *testing.T, workers int) {
	trainSet, validSet := resumeData()
	dir := t.TempDir()

	// Uninterrupted reference run.
	ref := resumeModel(t)
	refHist, err := train.Run(ref, trainSet, validSet, resumeCfg(workers, ""))
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: fresh model, same seed, killed after epoch 1.
	path := filepath.Join(dir, "run.ckpt")
	interrupted := resumeModel(t)
	stop := make(chan struct{})
	cfg := resumeCfg(workers, path)
	cfg.Interrupt = stop
	epochs := 0
	cfg.Progress = func(string) { // one line per finished epoch
		if epochs++; epochs == 2 {
			close(stop)
		}
	}
	partial, err := train.Run(interrupted, trainSet, validSet, cfg)
	if !errors.Is(err, train.ErrInterrupted) {
		t.Fatalf("interrupted run returned %v, want ErrInterrupted", err)
	}
	if len(partial.Epochs) != 2 {
		t.Fatalf("partial history has %d epochs, want 2", len(partial.Epochs))
	}

	// Resume in a "new process": a fresh model built the same way.
	resumed := resumeModel(t)
	resHist, err := train.Resume(resumed, trainSet, validSet, resumeCfg(workers, path))
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(refHist, resHist) {
		t.Errorf("history diverges after resume:\nref: %+v\nres: %+v", refHist, resHist)
	}
	refW, resW := weightsOf(ref), weightsOf(resumed)
	for i := range refW {
		if !reflect.DeepEqual(refW[i], resW[i]) {
			t.Fatalf("weights of tensor %d diverge after resume", i)
		}
	}
}

func TestResumeParitySequential(t *testing.T) { testResumeParity(t, 1) }
func TestResumeParityParallel(t *testing.T)   { testResumeParity(t, 2) }

func TestResumeValidatesRunIdentity(t *testing.T) {
	trainSet, validSet := resumeData()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m := resumeModel(t)
	cfg := resumeCfg(1, path)
	cfg.CheckpointEvery = 2
	if _, err := train.Run(m, trainSet, validSet, cfg); err != nil {
		t.Fatal(err)
	}

	badSeed := resumeCfg(1, path)
	badSeed.Seed = resumeSeed + 1
	if _, err := train.Resume(resumeModel(t), trainSet, validSet, badSeed); err == nil {
		t.Error("seed mismatch accepted")
	}

	badWorkers := resumeCfg(2, path)
	if _, err := train.Resume(resumeModel(t), trainSet, validSet, badWorkers); err == nil {
		t.Error("worker-count mismatch accepted")
	}

	// A different training set must be caught by the shuffle replay check.
	if _, err := train.Resume(resumeModel(t), trainSet[:len(trainSet)-2], validSet, resumeCfg(1, path)); err == nil {
		t.Error("diverging training set accepted")
	}
}

func TestResumeFinishedRunIsNoOp(t *testing.T) {
	trainSet, validSet := resumeData()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	m := resumeModel(t)
	h1, err := train.Run(m, trainSet, validSet, resumeCfg(1, path))
	if err != nil {
		t.Fatal(err)
	}
	before := weightsOf(m)

	m2 := resumeModel(t)
	h2, err := train.Resume(m2, trainSet, validSet, resumeCfg(1, path))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h1, h2) {
		t.Error("finished-run resume changed the history")
	}
	if !reflect.DeepEqual(before, weightsOf(m2)) {
		t.Error("finished-run resume changed the weights")
	}
}

func TestRunAbortsWhenCheckpointUnwritable(t *testing.T) {
	trainSet, validSet := resumeData()
	cfg := resumeCfg(1, filepath.Join(t.TempDir(), "missing-dir", "run.ckpt"))
	_, err := train.Run(resumeModel(t), trainSet, validSet, cfg)
	if err == nil {
		t.Fatal("unwritable checkpoint path did not abort the run")
	}
}

func TestResumeRejectsCorruptCheckpoint(t *testing.T) {
	trainSet, validSet := resumeData()
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := train.Run(resumeModel(t), trainSet, validSet, resumeCfg(1, path)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := train.Resume(resumeModel(t), trainSet, validSet, resumeCfg(1, path)); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}
