package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"pragformer/internal/ckpt"
	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// TestTrainWritesBestEpoch: `pragformer train` reports the best epoch's
// validation accuracy, so the artifact it writes must hold that epoch's
// weights, with or without -checkpoint. The checkpoint carries the run's
// learning curve; the seed is one whose best epoch is not its last.
func TestTrainWritesBestEpoch(t *testing.T) {
	const seed = 2
	dir := t.TempDir()
	corpusPath := filepath.Join(dir, "omp.jsonl")
	if err := corpus.Generate(corpus.Config{Seed: 3, Total: 60}).SaveFile(corpusPath); err != nil {
		t.Fatal(err)
	}
	ckptPath := filepath.Join(dir, "run.ckpt")
	vocabPath := filepath.Join(dir, "v.txt")
	plain, durable := filepath.Join(dir, "plain.gob"), filepath.Join(dir, "durable.gob")
	args := []string{
		"-corpus", corpusPath, "-vocab", vocabPath, "-task", "directive",
		"-epochs", "4", "-d", "8", "-heads", "2", "-layers", "1", "-lr", "5e-3",
		"-seed", strconv.Itoa(seed),
	}
	cmdTrain(append([]string{"-model", plain}, args...))
	cmdTrain(append([]string{"-model", durable, "-checkpoint", ckptPath}, args...))

	snap, err := ckpt.LoadFile(ckptPath)
	if err != nil {
		t.Fatal(err)
	}
	if snap.BestEpoch == len(snap.Epochs)-1 {
		t.Fatalf("best epoch %d is the last: the run cannot tell the best epoch's weights from the last's", snap.BestEpoch)
	}
	a, errA := os.ReadFile(plain)
	b, errB := os.ReadFile(durable)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("artifacts with and without -checkpoint differ (%v, %v)", errA, errB)
	}

	m, err := core.LoadFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	v, err := tokenize.LoadVocabFile(vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	c, err := corpus.LoadFile(corpusPath)
	if err != nil {
		t.Fatal(err)
	}
	validSet, err := dataset.Examples(splitFor(c, dataset.TaskDirective, seed).Valid, v, core.DefaultMaxLen)
	if err != nil {
		t.Fatal(err)
	}
	if loss, _ := train.Evaluate(m, validSet); loss != snap.Epochs[snap.BestEpoch].ValidLoss {
		t.Errorf("written model scores valid loss %v; best epoch %d had %v, last epoch %v",
			loss, snap.BestEpoch+1, snap.Epochs[snap.BestEpoch].ValidLoss, snap.Epochs[len(snap.Epochs)-1].ValidLoss)
	}
}
