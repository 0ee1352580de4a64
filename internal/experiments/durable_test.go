package experiments

import (
	"os"
	"reflect"
	"testing"

	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
)

// TestDurablePipelineRestoresFinishedModel simulates the restart story of
// `-mode full -checkpoint-dir`: a second pipeline (a "new process") with
// the same config must restore a finished model from its checkpoint
// instead of retraining, with identical history and bit-identical weights.
func TestDurablePipelineRestoresFinishedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	prm := Params{
		CorpusTotal: 300, D: 16, Heads: 2, Layers: 1, FFHidden: 32,
		Epochs: 2, MaxLen: 48, Batch: 16, LR: 1.5e-3, Dropout: 0.05,
	}
	mk := func() *Pipeline {
		p := NewPipeline(Config{Mode: Fast, Seed: 9, CheckpointDir: dir})
		p.P.CorpusTotal = prm.CorpusTotal
		return p
	}

	p1 := mk()
	t1 := p1.trainModel(dataset.TaskDirective, tokenize.Text, prm, 9)
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("expected 1 checkpoint, got %v (%v)", files, err)
	}

	p2 := mk()
	var retrained bool
	p2.Cfg.Progress = func(s string) {
		if s == "MLM pretraining" || len(s) > 8 && s[:8] == "training" {
			retrained = true
		}
	}
	t2 := p2.trainModel(dataset.TaskDirective, tokenize.Text, prm, 9)
	if retrained {
		t.Error("second pipeline retrained instead of restoring the checkpoint")
	}
	if !reflect.DeepEqual(t1.History, t2.History) {
		t.Errorf("restored history differs:\n%+v\n%+v", t1.History, t2.History)
	}
	w1, w2 := t1.Model.Params(), t2.Model.Params()
	for i := range w1 {
		if !reflect.DeepEqual(w1[i].W.Data, w2[i].W.Data) {
			t.Fatalf("restored weights differ at tensor %d (%s)", i, w1[i].Name)
		}
	}

	// A changed knob must key a different checkpoint, not collide.
	prm2 := prm
	prm2.LR = 2e-3
	if p1.checkpointPath(dataset.TaskDirective, tokenize.Text, prm, 9) ==
		p1.checkpointPath(dataset.TaskDirective, tokenize.Text, prm2, 9) {
		t.Error("ablation variants share a checkpoint path")
	}
}

// TestTrainModelCheckpointInvariant: a pipeline with and without
// CheckpointDir trains the same model — one train.Run with RestoreBest on
// either side — so weights and History are bit-identical, and both hold the
// best validation epoch.
func TestTrainModelCheckpointInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	prm := Params{
		CorpusTotal: 300, D: 16, Heads: 2, Layers: 1, FFHidden: 32,
		Epochs: 4, MaxLen: 48, Batch: 16, LR: 1e-2, Dropout: 0.05,
	}
	run := func(dir string) *Trained {
		p := NewPipeline(Config{Mode: Fast, Seed: 9, CheckpointDir: dir})
		p.P.CorpusTotal = prm.CorpusTotal
		return p.trainModel(dataset.TaskDirective, tokenize.Text, prm, 9)
	}
	mem, disk := run(""), run(t.TempDir())
	if mem.History.BestEpoch == len(mem.History.Epochs)-1 {
		t.Fatalf("best epoch %d is the last: the run cannot tell selection from no selection", mem.History.BestEpoch)
	}
	if !reflect.DeepEqual(mem.History, disk.History) {
		t.Errorf("histories differ:\nwithout checkpoint %+v\nwith checkpoint    %+v", mem.History, disk.History)
	}
	wd := disk.Model.Params()
	for i, p := range mem.Model.Params() {
		if !reflect.DeepEqual(p.W.Data, wd[i].W.Data) {
			t.Fatalf("weights differ at tensor %d (%s)", i, p.Name)
		}
	}
}
