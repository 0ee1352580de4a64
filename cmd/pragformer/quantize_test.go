package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"pragformer/internal/core"
	"pragformer/internal/quant"
)

// TestQuantizeCLI trains nothing: it saves a randomly initialized float
// artifact, converts it through the quantize subcommand, and checks the
// PFQNT output loads and predicts close to the float model — the same
// contract the core parity tests pin, exercised through the CLI and the
// on-disk formats.
func TestQuantizeCLI(t *testing.T) {
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	m, err := core.New(core.Config{Vocab: 120, MaxLen: 32, D: 32, Heads: 4, Layers: 1}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}

	cmdQuantize([]string{"-model", modelPath}) // default -out: model.pfq
	outPath := filepath.Join(dir, "model.pfq")
	if ok, err := quant.SniffFile(outPath); err != nil || !ok {
		t.Fatalf("quantize output is not a PFQNT artifact: %v %v", ok, err)
	}
	q, err := quant.LoadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 10; i++ {
		ids := []int{2}
		for n := rng.Intn(30); n > 0; n-- {
			ids = append(ids, 4+rng.Intn(100))
		}
		pf, pq := m.PredictBatch([][]int{ids})[0], q.PredictBatch([][]int{ids})[0]
		if d := pf - pq; d > 0.05 || d < -0.05 {
			t.Errorf("seq %d: float %v vs quantized-artifact %v", i, pf, pq)
		}
	}

	// The int8 artifact must be materially smaller than the float one.
	in, err := os.Stat(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	out, err := os.Stat(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.Size()*2 >= in.Size() {
		t.Errorf("quantized artifact %d bytes vs float %d: expected >2x smaller", out.Size(), in.Size())
	}
}
