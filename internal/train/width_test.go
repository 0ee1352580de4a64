package train

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
)

// digest hashes float64s by their exact bits.
func digest(vals ...float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// curveDigests hashes a History twice: every EpochStats field plus the
// best epoch, and the same without TrainLoss — the one field whose
// summation order depends on the width.
func curveDigests(h History) (full, valid string) {
	f, v := []float64{float64(h.BestEpoch)}, []float64{float64(h.BestEpoch)}
	for _, e := range h.Epochs {
		f = append(f, float64(e.Epoch), e.TrainLoss, e.ValidLoss, e.ValidAccuracy)
		v = append(v, float64(e.Epoch), e.ValidLoss, e.ValidAccuracy)
	}
	return digest(f...), digest(v...)
}

func weightsDigest(m Model) string {
	var ws []float64
	for _, p := range m.Params() {
		ws = append(ws, p.W.Data...)
	}
	return digest(ws...)
}

// TestWidthOneIsTheParentRun pins the one training loop to the two it
// replaced. The expected digests were recorded by running this test body
// at the commit that still had runSequential and runParallel: width 1
// (Workers 0 or 1, or any Workers on a model that cannot replicate) must
// reproduce the sequential loop's History and weights bit for bit; width
// 2 and 4 must reproduce the data-parallel loop's weights and validation
// curve bit for bit (their TrainLoss is folded per replica over the epoch,
// not per batch, and is held to 1e-12 relative of the width-1 value).
func TestWidthOneIsTheParentRun(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64; other compilers may fuse multiply-adds")
	}
	runSep := func(workers int) (Model, History) {
		m, trainSet, validSet := makeSep()
		h := Fit(m, trainSet, validSet, Config{Epochs: 3, BatchSize: 8, LR: 0.05, Warmup: 5, ClipNorm: 1, Seed: 2, Workers: workers})
		return m, h
	}
	runMLP := func(workers int) (Model, History) {
		m := newMLP(32, 64, 9)
		h := Fit(m, mlpData(60, 10, 1), mlpData(20, 10, 2), Config{
			Epochs: 4, BatchSize: 8, LR: 5e-3, Warmup: 5, ClipNorm: 1, Seed: 4, Workers: workers})
		return m, h
	}
	const (
		sepCurve, sepValid, sepWeights = "84642edcd320b537", "321925b111b4cee8", "637a528304884a65"
		mlpCurve, mlpValid             = "7d727182afd51286", "68ecc621770435e7"
	)
	cases := []struct {
		name     string
		fit      func(int) (Model, History)
		workers  int
		widthOne bool
		curve    string
		valid    string
		weights  string
	}{
		{"sep", runSep, 0, true, sepCurve, sepValid, sepWeights},
		{"sep", runSep, 1, true, sepCurve, sepValid, sepWeights},
		{"sep", runSep, 2, true, sepCurve, sepValid, sepWeights}, // not Replicable: width 1
		{"sep", runSep, 4, true, sepCurve, sepValid, sepWeights},
		{"mlp", runMLP, 0, true, mlpCurve, mlpValid, "d9cab556558bf6eb"},
		{"mlp", runMLP, 1, true, mlpCurve, mlpValid, "d9cab556558bf6eb"},
		{"mlp", runMLP, 2, false, "", "0db78f6e65cdb1d6", "b6300d8f98b03798"},
		{"mlp", runMLP, 4, false, "", "d3bae26c3f3a0852", "6d0ea87dfad491fc"},
	}
	_, mlpOne := runMLP(1)
	for _, c := range cases {
		m, h := c.fit(c.workers)
		curve, valid := curveDigests(h)
		if c.widthOne && curve != c.curve {
			t.Errorf("%s workers=%d: History digest %s, want %s", c.name, c.workers, curve, c.curve)
		}
		if valid != c.valid {
			t.Errorf("%s workers=%d: validation-curve digest %s, want %s", c.name, c.workers, valid, c.valid)
		}
		if got := weightsDigest(m); got != c.weights {
			t.Errorf("%s workers=%d: weights digest %s, want %s", c.name, c.workers, got, c.weights)
		}
		if !c.widthOne {
			for i, e := range h.Epochs {
				if want := mlpOne.Epochs[i].TrainLoss; math.Abs(e.TrainLoss-want) > 1e-12*want {
					t.Errorf("mlp workers=%d epoch %d: TrainLoss %v, width 1 has %v", c.workers, i, e.TrainLoss, want)
				}
			}
		}
	}
}
