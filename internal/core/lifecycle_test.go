package core

// What a model holds, pinned: New's initial weights for a (cfg, seed), the
// version-1 files the parent commit wrote, and the cost of a Load.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"testing"

	"pragformer/internal/nn"
	"pragformer/internal/tokenize"
)

// paramsDigest hashes names, shapes and exact weight bits.
func paramsDigest(ps []*nn.Param) string {
	h := sha256.New()
	var b [8]byte
	for _, p := range ps {
		fmt.Fprintf(h, "%s %dx%d\n", p.Name, p.W.Rows, p.W.Cols)
		for _, v := range p.W.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestInitPinned holds New to the initial weights it produced while the
// pretraining head was still built between FC2 and the blocks on the same
// math/rand stream (digests recorded at that commit): the head is gone, the
// stream position every block's init hangs off is not.
func TestInitPinned(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		seed int64
		want string
	}{
		{tinyConfig(), 1, "ce9068597874db56b3c69a1af3cbb021a5c3cc6690ec3ad675791f194cf1b3ef"},
		{Config{Vocab: 300, D: 32, Heads: 4, Layers: 1}, 11, "27fa9fc11a1da185ecb3da9e2e40270b7817d26372b74efa086d0c7aa2d17744"},
	} {
		m := mustNew(t, tc.cfg, tc.seed)
		if got := paramsDigest(m.Params()); got != tc.want {
			t.Errorf("New(%+v, %d) initial weights moved: digest %s, want %s", tc.cfg, tc.seed, got, tc.want)
		}
		for _, p := range m.Params() {
			if p.Grad != nil {
				t.Fatalf("New allocated a gradient for %q", p.Name)
			}
		}
	}
}

// TestLoadsV1File reads testdata/v1_tiny.gob — New(tinyConfig(), 23) saved
// by the last commit that wrote format version 1, pretraining head and all
// — and requires the weights and the prediction that commit had. The
// current format must then round-trip byte-stably.
func TestLoadsV1File(t *testing.T) {
	raw, err := os.ReadFile("testdata/v1_tiny.gob")
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("version-1 file rejected: %v", err)
	}
	const wantParams = "88ec56ca2ce0f76351c7fa5b68b5bf856770a7a59fd883f64f960b9719e52379"
	if got := paramsDigest(m.Params()); got != wantParams {
		t.Errorf("version-1 weights digest %s, want %s", got, wantParams)
	}
	ids := []int{tokenize.CLS, 9, 8, 7, 31}
	if got := math.Float64bits(predictOne(m, ids)); got != 0x3fddc6050cf6a9f2 {
		t.Errorf("version-1 prediction bits %#x, want 0x3fddc6050cf6a9f2", got)
	}

	var v2, again bytes.Buffer
	if err := m.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if v2.Len() >= len(raw) || bytes.Contains(v2.Bytes(), []byte("mlm.")) {
		t.Errorf("version-2 save is %d bytes against %d for version 1, or still names the mlm head", v2.Len(), len(raw))
	}
	m2, err := Load(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.Save(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v2.Bytes(), again.Bytes()) {
		t.Error("version-2 save -> load -> save is not byte-stable")
	}
	if predictOne(m2, ids) != predictOne(m, ids) {
		t.Error("version-2 round trip changed the prediction")
	}
}

// TestLoadAllocatesTheFileOnce bounds what Load costs: the gob decoder's
// message buffer and the decoded tensors, which the model then adopts — not
// the fresh model, its gradients and a vocabulary head it used to build
// first. It measures 1.9x the file size; a second copy of the weights would
// make it 2.8x, so 2.5x is the line.
func TestLoadAllocatesTheFileOnce(t *testing.T) {
	var buf bytes.Buffer
	if err := mustNew(t, Config{Vocab: 4000, D: 32, Heads: 4, Layers: 1}, 3).Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Load(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(5*len(raw)/2); got > limit {
		t.Errorf("Load of a %d-byte file allocated %d bytes, limit %d", len(raw), got, limit)
	}
	if got := WeightBytes(m); got > len(raw) {
		t.Errorf("loaded model holds %d weight bytes from a %d-byte file", got, len(raw))
	}
}
