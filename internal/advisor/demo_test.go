package advisor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// directiveOf returns a float64 bundle's classifier.
func directiveOf(t *testing.T, m *Models) *core.PragFormer {
	t.Helper()
	pf, ok := m.Directive.(*core.PragFormer)
	if !ok {
		t.Fatalf("bundle classifier is %T, want *core.PragFormer", m.Directive)
	}
	return pf
}

// TestTrainDemoWeightsPinned holds the fitted demo classifier to the exact
// weights the commit before lazy gradients and the detached MLM head
// produced, at both a sequential and a data-parallel width: names, shapes
// and every weight bit. The digests cover the directive classifier alone;
// they equal that classifier's share of the bundle digests recorded while
// the demo also fitted the two clause classifiers.
func TestTrainDemoWeightsPinned(t *testing.T) {
	checkDemoDigests(t, DemoConfig{Seed: 1, Total: 120, Epochs: 1}, map[int]string{
		1: "6e0c1b2a8c92bd9c8d6ae804aa03369f9e526931b1173c65c3471d79811e064c",
		2: "0d9411c3dc4e163baddadc13e80268594b1928d988a9f3b22dfd483cef52a317",
	})
}

// TestTrainDemoHarnessWeightsPinned pins the program the benchmark harness
// trains, TrainDemo{Seed 1, Total 600, Epochs 3}, at widths 1 and 2: about
// ninety optimizer steps over the full 299,234-parameter classifier, where
// the short pin above takes a handful. The digests were recorded before the
// optimizer step became one fused sweep per parameter.
func TestTrainDemoHarnessWeightsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("fits the harness demo twice (about 1.3 s)")
	}
	checkDemoDigests(t, DemoConfig{Seed: 1, Total: 600, Epochs: 3}, map[int]string{
		1: "c6d584225cb5053c9550aa9f53f66a272cc0ab58d90f13e76274324e6bffdbf6",
		2: "44d2a107f9d028cf8819b95210d29ce6e647dcc63d3510f70a8ab18ee7aacf29",
	})
}

// checkDemoDigests compares the sha-256 of the directive classifier's
// parameter names, shapes and weight bits, fitted on cfg at each trainer
// width in want. TrainDemo trains at width 1 and must give want[1]; every
// width, 1 included, is also fitted by demoAtWidth, TrainDemo's recipe with
// the width as a parameter, so the wider pins hold the same program.
func checkDemoDigests(t *testing.T, cfg DemoConfig, want map[int]string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other compilers may fuse multiply-adds")
	}
	models, err := TrainDemo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := weightsDigest(directiveOf(t, models)); got != want[1] {
		t.Errorf("TrainDemo: fitted demo weights digest %s, want %s", got, want[1])
	}
	for workers, digest := range want {
		if got := weightsDigest(demoAtWidth(t, cfg, workers)); got != digest {
			t.Errorf("Workers=%d: fitted demo weights digest %s, want %s", workers, got, digest)
		}
	}
}

// demoAtWidth is TrainDemo's recipe fitted by the data-parallel trainer at
// the given width.
func demoAtWidth(t *testing.T, cfg DemoConfig, workers int) *core.PragFormer {
	t.Helper()
	cfg.fillDefaults()
	split := dataset.Directive(corpus.Generate(corpus.Config{Seed: cfg.Seed, Total: cfg.Total}), dataset.Options{Seed: cfg.Seed})
	v, err := split.Vocab()
	if err != nil {
		t.Fatal(err)
	}
	seed := cfg.Seed + 10
	m, err := core.New(core.Config{Vocab: v.Size(), D: demoD, Heads: demoHeads, Layers: demoLayers}, seed)
	if err != nil {
		t.Fatal(err)
	}
	trainSet, err := dataset.Examples(split.Train, v, core.DefaultMaxLen)
	if err != nil {
		t.Fatal(err)
	}
	validSet, err := dataset.Examples(split.Valid, v, core.DefaultMaxLen)
	if err != nil {
		t.Fatal(err)
	}
	train.Fit(m, trainSet, validSet, train.Config{
		Epochs: cfg.Epochs, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1,
		Seed: seed, Workers: workers,
	})
	return m
}

// weightsDigest is the hex sha-256 of a classifier's parameter names,
// shapes and weight bits.
func weightsDigest(pf *core.PragFormer) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range pf.Params() {
		fmt.Fprintf(h, "%s %dx%d\n", p.Name, p.W.Rows, p.W.Cols)
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// liveHeap is the heap still reachable after two forced collections (the
// second empties the sync.Pool victim caches training filled).
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestBundleFootprint is the footprint gate: a bundle that is only going to
// answer keeps its weights and its vocabulary and nothing else of size — no
// gradient accumulators after the fits, no MLM head, no second copy of the
// decoded tensors after a load. Resident growth is held to 1.25x the sum of
// the classifier's weight bytes and the vocabulary's own measured
// footprint. (An eager Grad beside every weight alone reads ~2x.)
func TestBundleFootprint(t *testing.T) {
	before := liveHeap()
	models, err := TrainDemo(DemoConfig{Seed: 1, Total: 300, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	trained := liveHeap() - before

	var vocabFile bytes.Buffer
	if err := models.Vocab.Save(&vocabFile); err != nil {
		t.Fatal(err)
	}
	before = liveHeap()
	vocabCopy, err := tokenize.LoadVocab(bytes.NewReader(vocabFile.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	budget := liveHeap() - before
	runtime.KeepAlive(vocabCopy)
	budget += int64(core.WeightBytes(models.Directive))
	budget += budget / 4

	dir := t.TempDir()
	modelPath, vocabPath := filepath.Join(dir, "directive.gob"), filepath.Join(dir, "vocab.txt")
	if err := directiveOf(t, models).SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := models.Vocab.SaveFile(vocabPath); err != nil {
		t.Fatal(err)
	}
	before = liveHeap()
	loaded, err := LoadModels(modelPath, vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	reloaded := liveHeap() - before
	runtime.KeepAlive(models)
	runtime.KeepAlive(loaded)

	t.Logf("budget %d bytes; trained bundle %d, loaded bundle %d", budget, trained, reloaded)
	if trained > budget {
		t.Errorf("trained demo bundle keeps %d bytes live, budget %d", trained, budget)
	}
	if reloaded > budget {
		t.Errorf("loaded demo bundle keeps %d bytes live, budget %d", reloaded, budget)
	}
}

// TestLoadModelsRejectsPFQNT points LoadModels at an int8 artifact in the
// PFQNT format an older `pragformer quantize` wrote: the bundle load fails
// with core.LoadFile's error naming the format, as cmd/serve's -directive
// and `pragformer scan -model` report it.
func TestLoadModelsRejectsPFQNT(t *testing.T) {
	vocabPath := filepath.Join(t.TempDir(), "vocab.txt")
	if err := os.WriteFile(vocabPath, []byte("[PAD]\n[UNK]\n[CLS]\n[MASK]\nfor\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	models, err := LoadModels("../core/testdata/quant_l2_v1.pfq", vocabPath)
	if err == nil {
		t.Fatalf("LoadModels accepted a PFQNT artifact: %+v", models)
	}
	if !strings.Contains(err.Error(), "PFQNT") || !strings.Contains(err.Error(), "-backend int8") {
		t.Errorf("error %q does not name the format and the replacement", err)
	}
}
