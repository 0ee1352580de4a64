package nn

import (
	"math/rand"
	"testing"

	"pragformer/internal/tensor"
)

// randMat fills a fresh rows×cols matrix with N(0,1) entries.
func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	return tensor.New(rows, cols).Randn(rng, 1)
}

func sameData(t *testing.T, name string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if v != want.Data[i] {
			t.Fatalf("%s: element %d: %v != %v", name, i, v, want.Data[i])
		}
	}
}

// TestApplyIntoParity checks the cache-free forwards against the training
// forwards bit-for-bit on the layer level.
func TestApplyIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := randMat(rng, 7, 16)

	bw := new(Borrows)
	l := NewLinear("l", 16, 12, rng)
	want, _ := l.Forward(x, bw)
	got := tensor.New(7, 12)
	l.ApplyInto(got, x)
	sameData(t, "Linear.ApplyInto", got, want)

	ln := NewLayerNorm("ln", 16)
	ln.Gamma.W.Randn(rng, 1)
	ln.Beta.W.Randn(rng, 1)
	wantLN, _ := ln.Forward(x, bw)
	gotLN := tensor.New(7, 16)
	ln.InferView().ApplyInto(gotLN, x)
	sameData(t, "Norm.ApplyInto", gotLN, wantLN)

	wantR, _ := ReLU(want, bw)
	gotR := tensor.New(7, 12)
	l.ApplyReLUInto(gotR, x)
	sameData(t, "Linear.ApplyReLUInto", gotR, wantR)
}

// TestInferBatchParity runs a block's float64 inference view over two
// stacked sequences and checks the ragged-batch forward (and its CLS-pruned
// variant) against per-sequence training forwards.
func TestInferBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const d, heads, ff = 16, 4, 32
	blk := NewEncoderBlock("b", d, heads, ff, 0.1, rng)

	xa := randMat(rng, 5, d)
	xb := randMat(rng, 9, d)
	stacked := tensor.New(14, d)
	copy(stacked.Data[:5*d], xa.Data)
	copy(stacked.Data[5*d:], xb.Data)
	offs := []int{0, 5, 14}

	bw := new(Borrows)
	wantA, _ := blk.Forward(xa, xa.Rows, false, nil, bw)
	wantB, _ := blk.Forward(xb, xb.Rows, false, nil, bw)

	out := blk.InferView().InferBatch(stacked, offs)
	defer tensor.PutMatrix(out)
	for i := 0; i < 5; i++ {
		for j := 0; j < d; j++ {
			if out.At(i, j) != wantA.At(i, j) {
				t.Fatalf("InferBatch seq A row %d col %d: %v != %v", i, j, out.At(i, j), wantA.At(i, j))
			}
		}
	}
	for i := 0; i < 9; i++ {
		for j := 0; j < d; j++ {
			if out.At(5+i, j) != wantB.At(i, j) {
				t.Fatalf("InferBatch seq B row %d col %d: %v != %v", i, j, out.At(5+i, j), wantB.At(i, j))
			}
		}
	}

	cls := blk.InferView().InferCLS(stacked, offs)
	defer tensor.PutMatrix(cls)
	for j := 0; j < d; j++ {
		if cls.At(0, j) != wantA.At(0, j) {
			t.Fatalf("InferCLS seq A col %d: %v != %v", j, cls.At(0, j), wantA.At(0, j))
		}
		if cls.At(1, j) != wantB.At(0, j) {
			t.Fatalf("InferCLS seq B col %d: %v != %v", j, cls.At(1, j), wantB.At(0, j))
		}
	}
}
