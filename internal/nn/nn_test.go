package nn

import (
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/tensor"
)

// loss is a fixed random linear functional of the output, so dOut = r and
// analytic gradients can be checked against central finite differences.
func lossOf(out, r *tensor.Matrix) float64 {
	s := 0.0
	for i := range out.Data {
		s += out.Data[i] * r.Data[i]
	}
	return s
}

const (
	fdEps = 1e-5
	fdTol = 1e-4
)

// checkGrad compares an analytic gradient against finite differences of f
// with respect to the entries of w.
func checkGrad(t *testing.T, name string, w, analytic *tensor.Matrix, f func() float64) {
	t.Helper()
	for i := 0; i < len(w.Data); i += 1 + len(w.Data)/17 { // sample entries
		orig := w.Data[i]
		w.Data[i] = orig + fdEps
		up := f()
		w.Data[i] = orig - fdEps
		down := f()
		w.Data[i] = orig
		numeric := (up - down) / (2 * fdEps)
		if diff := math.Abs(numeric - analytic.Data[i]); diff > fdTol*(1+math.Abs(numeric)) {
			t.Errorf("%s grad[%d]: analytic %.6g vs numeric %.6g", name, i, analytic.Data[i], numeric)
		}
	}
}

func TestLinearGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear("t", 4, 3, rng)
	x := tensor.New(5, 4).Randn(rng, 1)
	r := tensor.New(5, 3).Randn(rng, 1)
	bw, fw := new(Borrows), new(Borrows) // fw: each finite-difference forward's

	forward := func() float64 {
		defer fw.Release()
		y, _ := l.Forward(x, fw)
		return lossOf(y, r)
	}
	_, c := l.Forward(x, bw)
	dx := l.Backward(c, r, bw)

	checkGrad(t, "linear.W", l.W.W, l.W.Grad, forward)
	checkGrad(t, "linear.b", l.B.W, l.B.Grad, forward)
	checkGrad(t, "linear.x", x, dx, forward)
}

func TestLayerNormGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ln := NewLayerNorm("t", 6)
	ln.Gamma.W.Randn(rng, 0.5)
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] += 1
	}
	ln.Beta.W.Randn(rng, 0.5)
	x := tensor.New(3, 6).Randn(rng, 1)
	r := tensor.New(3, 6).Randn(rng, 1)
	bw, fw := new(Borrows), new(Borrows) // fw: each finite-difference forward's

	forward := func() float64 {
		defer fw.Release()
		y, _ := ln.Forward(x, fw)
		return lossOf(y, r)
	}
	_, c := ln.Forward(x, bw)
	dx := ln.Backward(c, r, bw)

	checkGrad(t, "ln.gamma", ln.Gamma.W, ln.Gamma.Grad, forward)
	checkGrad(t, "ln.beta", ln.Beta.W, ln.Beta.Grad, forward)
	checkGrad(t, "ln.x", x, dx, forward)
}

func TestAttentionGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMultiHeadAttention("t", 8, 2, rng)
	x := tensor.New(5, 8).Randn(rng, 1)
	r := tensor.New(5, 8).Randn(rng, 1)
	bw, fw := new(Borrows), new(Borrows) // fw: each finite-difference forward's

	forward := func() float64 {
		defer fw.Release()
		y, _ := m.Forward(x, x.Rows, fw)
		return lossOf(y, r)
	}
	_, c := m.Forward(x, x.Rows, bw)
	dx := m.Backward(c, r, bw)

	checkGrad(t, "attn.wq", m.WQ.W.W, m.WQ.W.Grad, forward)
	checkGrad(t, "attn.wk", m.WK.W.W, m.WK.W.Grad, forward)
	checkGrad(t, "attn.wv", m.WV.W.W, m.WV.W.Grad, forward)
	checkGrad(t, "attn.wo", m.WO.W.W, m.WO.W.Grad, forward)
	checkGrad(t, "attn.x", x, dx, forward)
}

func TestFFNGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := NewFFN("t", 6, 12, rng)
	x := tensor.New(4, 6).Randn(rng, 1)
	r := tensor.New(4, 6).Randn(rng, 1)
	bw, fw := new(Borrows), new(Borrows) // fw: each finite-difference forward's

	forward := func() float64 {
		defer fw.Release()
		y, _ := f.Forward(x, fw)
		return lossOf(y, r)
	}
	_, c := f.Forward(x, bw)
	dx := f.Backward(c, r, bw)

	checkGrad(t, "ffn.l1", f.L1.W.W, f.L1.W.Grad, forward)
	checkGrad(t, "ffn.l2", f.L2.W.W, f.L2.W.Grad, forward)
	checkGrad(t, "ffn.x", x, dx, forward)
}

func TestEncoderBlockGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := NewEncoderBlock("t", 8, 2, 16, 0, rng)
	x := tensor.New(4, 8).Randn(rng, 1)
	r := tensor.New(4, 8).Randn(rng, 1)
	bw, fw := new(Borrows), new(Borrows) // fw: each finite-difference forward's

	forward := func() float64 {
		defer fw.Release()
		y, _ := b.Forward(x, x.Rows, false, nil, fw)
		return lossOf(y, r)
	}
	_, c := b.Forward(x, x.Rows, false, nil, bw)
	dx := b.Backward(c, r, bw)

	checkGrad(t, "block.x", x, dx, forward)
	checkGrad(t, "block.attn.wv", b.Attn.WV.W.W, b.Attn.WV.W.Grad, forward)
	checkGrad(t, "block.ffn.l1", b.FF.L1.W.W, b.FF.L1.W.Grad, forward)
	checkGrad(t, "block.ln1.gamma", b.LN1.Gamma.W, b.LN1.Gamma.Grad, forward)
}

// TestBlockForwardRowsMatchFullRows holds a block run on its first nq rows
// to the full-width block: the output is the full output's first nq rows
// bit for bit, the dropout stream ends where the full forward leaves it,
// and a backward from the nq-row gradient equals one from the full gradient
// zeroed past row nq — dX in value, every parameter gradient in bits.
func TestBlockForwardRowsMatchFullRows(t *testing.T) {
	const T, d, heads, ff = 7, 8, 2, 16
	for _, drop := range []float64{0, 0.2} {
		for _, nq := range []int{1, 3, T} {
			build := func() *EncoderBlock {
				return NewEncoderBlock("t", d, heads, ff, drop, rand.New(rand.NewSource(13)))
			}
			full, part := build(), build()
			rng := rand.New(rand.NewSource(14))
			x := tensor.New(T, d).Randn(rng, 1)
			dOut := tensor.New(nq, d).Randn(rng, 1)
			dFull := tensor.New(T, d)
			copy(dFull.Data, dOut.Data)

			rngFull, rngPart := NewRNG(15), NewRNG(15)
			bw := new(Borrows)
			yFull, cFull := full.Forward(x, T, true, rngFull, bw)
			yPart, cPart := part.Forward(x, nq, true, rngPart, bw)
			if yPart.Rows != nq || !sameBits(yPart.Data, yFull.Data[:nq*d]) {
				t.Fatalf("drop %g nq %d: output differs from the full forward's first rows", drop, nq)
			}
			if rngPart.State() != rngFull.State() {
				t.Fatalf("drop %g nq %d: dropout stream at %x, full forward leaves it at %x",
					drop, nq, rngPart.State(), rngFull.State())
			}

			dxFull := full.Backward(cFull, dFull, bw)
			dxPart := part.Backward(cPart, dOut, bw)
			for i := range dxFull.Data {
				if dxPart.Data[i] != dxFull.Data[i] {
					t.Fatalf("drop %g nq %d: dX[%d] = %v, full %v", drop, nq, i, dxPart.Data[i], dxFull.Data[i])
				}
			}
			fp := full.Params()
			for k, p := range part.Params() {
				if !sameBits(p.Grad.Data, fp[k].Grad.Data) {
					t.Errorf("drop %g nq %d: %s gradient differs from the full backward's", drop, nq, p.Name)
				}
			}
			bw.Release()
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestEmbeddingForwardBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	e := NewEmbedding(10, 8, 4, rng)
	ids := []int{2, 5, 5, 1}
	out := e.Forward(ids, new(Borrows))
	if out.Rows != 4 || out.Cols != 4 {
		t.Fatalf("out shape %dx%d", out.Rows, out.Cols)
	}
	// Row = tok + pos.
	for j := 0; j < 4; j++ {
		want := e.Tok.W.At(5, j) + e.Pos.W.At(1, j)
		if math.Abs(out.At(1, j)-want) > 1e-12 {
			t.Fatal("embedding sum wrong")
		}
	}
	dOut := tensor.New(4, 4)
	for i := range dOut.Data {
		dOut.Data[i] = 1
	}
	e.Backward(ids, dOut)
	// Token 5 appears twice → grad rows accumulate to 2.
	if e.Tok.Grad.At(5, 0) != 2 {
		t.Errorf("tok grad = %g, want 2", e.Tok.Grad.At(5, 0))
	}
	if e.Pos.Grad.At(0, 0) != 1 {
		t.Errorf("pos grad = %g, want 1", e.Pos.Grad.At(0, 0))
	}
	if e.Tok.Grad.At(3, 0) != 0 {
		t.Error("untouched token has gradient")
	}
}

func TestReLU(t *testing.T) {
	x := tensor.FromSlice(1, 4, []float64{-1, 0, 2, -3})
	bw := new(Borrows)
	y, c := ReLU(x, bw)
	want := []float64{0, 0, 2, 0}
	for i := range want {
		if y.Data[i] != want[i] {
			t.Fatalf("relu = %v", y.Data)
		}
	}
	d := tensor.FromSlice(1, 4, []float64{1, 1, 1, 1})
	dx := ReLUBackward(c, d, bw)
	wantDx := []float64{0, 0, 1, 0}
	for i := range wantDx {
		if dx.Data[i] != wantDx[i] {
			t.Fatalf("relu dx = %v", dx.Data)
		}
	}
}

func TestDropoutTrainEval(t *testing.T) {
	rng := NewRNG(7)
	x := tensor.New(10, 10)
	for i := range x.Data {
		x.Data[i] = 1
	}
	bw := new(Borrows)
	yEval, _ := Dropout(x, 0.5, false, rng, bw)
	for i := range yEval.Data {
		if yEval.Data[i] != 1 {
			t.Fatal("eval-mode dropout must be identity")
		}
	}
	yTrain, c := Dropout(x, 0.5, true, rng, bw)
	zeros, twos := 0, 0
	for _, v := range yTrain.Data {
		switch v {
		case 0:
			zeros++
		case 2:
			twos++
		default:
			t.Fatalf("unexpected value %g", v)
		}
	}
	if zeros == 0 || twos == 0 {
		t.Error("dropout did not both drop and keep")
	}
	d := x.Clone()
	dx := DropoutBackward(c, d, bw)
	for i := range dx.Data {
		if (yTrain.Data[i] == 0) != (dx.Data[i] == 0) {
			t.Fatal("dropout backward mask inconsistent")
		}
	}
}

func TestDropoutExpectationPreserved(t *testing.T) {
	rng := NewRNG(8)
	x := tensor.New(100, 100)
	for i := range x.Data {
		x.Data[i] = 1
	}
	y, _ := Dropout(x, 0.3, true, rng, new(Borrows))
	mean := 0.0
	for _, v := range y.Data {
		mean += v
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean-1) > 0.05 {
		t.Errorf("inverted-dropout mean = %.3f, want ≈ 1", mean)
	}
}

func TestAttentionRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMultiHeadAttention("t", 8, 4, rng)
	x := tensor.New(6, 8).Randn(rng, 1)
	_, c := m.Forward(x, x.Rows, new(Borrows))
	if len(c.Attention()) != 4 {
		t.Fatalf("heads = %d", len(c.Attention()))
	}
	for h, a := range c.Attention() {
		for i := 0; i < a.Rows; i++ {
			sum := 0.0
			for j := 0; j < a.Cols; j++ {
				sum += a.At(i, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("head %d row %d sums to %g", h, i, sum)
			}
		}
	}
}

func TestHeadsMustDivideDim(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMultiHeadAttention("t", 10, 3, rand.New(rand.NewSource(1)))
}

func TestParamZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := NewParam("p", 2, 2, rng, 1)
	if p.ZeroGrad(); p.Grad != nil {
		t.Fatal("zeroing an unallocated gradient allocated it")
	}
	p.Gradient().Data[0] = 5
	p.ZeroGrad()
	if p.Grad.Data[0] != 0 {
		t.Fatal("ZeroGrad failed")
	}
}

func TestParamsCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewEncoderBlock("t", 8, 2, 16, 0.1, rng)
	// ln1(2) + attn(4 linears × 2) + ln2(2) + ffn(2 linears × 2) = 16.
	if n := len(b.Params()); n != 16 {
		t.Errorf("block params = %d, want 16", n)
	}
	e := NewEmbedding(10, 5, 8, rng)
	if n := len(e.Params()); n != 2 {
		t.Errorf("embedding params = %d", n)
	}
}

func BenchmarkEncoderBlockForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blk := NewEncoderBlock("t", 64, 4, 128, 0, rng)
	x := tensor.New(33, 64).Randn(rng, 1) // avg snippet length (Table 7)
	bw := new(Borrows)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.Forward(x, x.Rows, false, nil, bw)
		bw.Release()
	}
}

func BenchmarkEncoderBlockBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	blk := NewEncoderBlock("t", 64, 4, 128, 0, rng)
	x := tensor.New(33, 64).Randn(rng, 1)
	r := tensor.New(33, 64).Randn(rng, 1)
	_, c := blk.Forward(x, x.Rows, false, nil, new(Borrows))
	bw := new(Borrows) // the backward's own borrows, released each round
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		blk.Backward(c, r, bw)
		bw.Release()
	}
}
