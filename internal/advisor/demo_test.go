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
	"pragformer/internal/tokenize"
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

// checkDemoDigests fits cfg at each width in want and compares the sha-256
// of the directive classifier's parameter names, shapes and weight bits.
func checkDemoDigests(t *testing.T, cfg DemoConfig, want map[int]string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other compilers may fuse multiply-adds")
	}
	for workers, digest := range want {
		cfg.Workers = workers
		models, err := TrainDemo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, p := range directiveOf(t, models).Params() {
			fmt.Fprintf(h, "%s %dx%d\n", p.Name, p.W.Rows, p.W.Cols)
			for _, v := range p.W.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != digest {
			t.Errorf("Workers=%d: fitted demo weights digest %s, want %s", workers, got, digest)
		}
	}
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
