package advisor

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"pragformer/internal/core"
	"pragformer/internal/tokenize"
)

// classifiersOf lists a float64 bundle's three models.
func classifiersOf(t *testing.T, m *Models) []*core.PragFormer {
	t.Helper()
	var out []*core.PragFormer
	for _, b := range []core.Backend{m.Directive, m.Private, m.Reduction} {
		pf, ok := b.(*core.PragFormer)
		if !ok {
			t.Fatalf("bundle classifier is %T, want *core.PragFormer", b)
		}
		out = append(out, pf)
	}
	return out
}

// TestTrainDemoWeightsPinned holds the three fitted demo classifiers to the
// exact weights the commit before lazy gradients and the detached MLM head
// produced (digests recorded there), at both a sequential and a data-parallel
// width: names, shapes and every weight bit of all three models.
func TestTrainDemoWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other compilers may fuse multiply-adds")
	}
	for workers, want := range map[int]string{
		1: "843e8584733eb90c93c54f03801a3688f43fcb59c9c2120a11e875c85d7c2c4d",
		2: "0fae35ce39a9215a382049cfe30cf86c00f19e9bccb03f493ff45b74cf4fdf40",
	} {
		models, err := TrainDemo(DemoConfig{Seed: 1, Total: 120, Epochs: 1, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		var b [8]byte
		for _, pf := range classifiersOf(t, models) {
			for _, p := range pf.Params() {
				fmt.Fprintf(h, "%s %dx%d\n", p.Name, p.W.Rows, p.W.Cols)
				for _, v := range p.W.Data {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
					h.Write(b[:])
				}
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			t.Errorf("Workers=%d: fitted demo weights digest %s, want %s", workers, got, want)
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
// the three classifiers' weight bytes and the vocabulary's own measured
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
	for _, pf := range classifiersOf(t, models) {
		budget += int64(core.WeightBytes(pf))
	}
	budget += budget / 4

	dir := t.TempDir()
	paths := []string{"directive.gob", "private.gob", "reduction.gob", "vocab.txt"}
	for i := range paths {
		paths[i] = filepath.Join(dir, paths[i])
	}
	for i, pf := range classifiersOf(t, models) {
		if err := pf.SaveFile(paths[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := models.Vocab.SaveFile(paths[3]); err != nil {
		t.Fatal(err)
	}
	before = liveHeap()
	loaded, err := LoadModels(paths[0], paths[1], paths[2], paths[3])
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
