// Package nn implements the neural building blocks of PragFormer with
// explicit forward/backward passes: embeddings with positional encodings,
// linear layers, layer normalization, multi-head self-attention, the
// position-wise feed-forward network, dropout, and the composed transformer
// encoder block (pre-norm residual form). Every layer returns a cache from
// Forward that its Backward consumes, and gradients accumulate into Param
// buffers consumed by the optimizer in internal/train. Every matrix a
// training Forward or Backward makes is borrowed from the tensor pool
// through the caller's Borrows list, and goes back when the caller releases
// it after the example's backward.
package nn

import (
	"math"
	"math/rand"

	"pragformer/internal/tensor"
)

// Param is one trainable weight matrix with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix
	// Grad exists only during a fit: nil until Gradient is first asked for
	// it, nil again once the training loop returns (train.ReleaseGrads).
	Grad *tensor.Matrix
	// NoDecay excludes the parameter from AdamW weight decay (biases,
	// layer-norm gains, embeddings).
	NoDecay bool
}

// NewParam allocates a rows×cols parameter initialized N(0, std²). A nil
// rng — every constructor that takes one passes it down to here — builds
// the shape alone: W.Data stays nil for a caller that brings the storage — a decoded model
// file's tensors, a copy of another model's weights.
func NewParam(name string, rows, cols int, rng *rand.Rand, std float64) *Param {
	if rng == nil {
		return &Param{Name: name, W: &tensor.Matrix{Rows: rows, Cols: cols}}
	}
	p := &Param{Name: name, W: tensor.New(rows, cols)}
	if std > 0 {
		p.W.Randn(rng, std)
	}
	return p
}

// Gradient returns the gradient accumulator, allocating it zeroed on first
// use — numerically the accumulator an eager allocation would have been.
func (p *Param) Gradient() *tensor.Matrix {
	if p.Grad == nil {
		p.Grad = tensor.New(p.W.Rows, p.W.Cols)
	}
	return p.Grad
}

// ZeroGrad clears the gradient accumulator; one not yet allocated is zero.
func (p *Param) ZeroGrad() {
	if p.Grad != nil {
		p.Grad.Zero()
	}
}

// ---------------------------------------------------------------------------
// Embedding
// ---------------------------------------------------------------------------

// Embedding sums token and learned positional embeddings.
type Embedding struct {
	Tok *Param // vocab × d
	Pos *Param // maxLen × d
	D   int
}

// NewEmbedding builds token and positional tables.
func NewEmbedding(vocab, maxLen, d int, rng *rand.Rand) *Embedding {
	e := &Embedding{
		Tok: NewParam("emb.tok", vocab, d, rng, 0.02),
		Pos: NewParam("emb.pos", maxLen, d, rng, 0.02),
		D:   d,
	}
	e.Tok.NoDecay = true
	e.Pos.NoDecay = true
	return e
}

// Params lists trainable parameters.
func (e *Embedding) Params() []*Param { return []*Param{e.Tok, e.Pos} }

// Forward embeds ids into a T×d matrix.
func (e *Embedding) Forward(ids []int, bw *Borrows) *tensor.Matrix {
	out := bw.BorrowDirty(len(ids), e.D) // each row is copied in whole
	for t, idx := range ids {
		row := out.Row(t)
		copy(row, e.Tok.W.Row(idx))
		tensor.Axpy(1, e.Pos.W.Row(t), row)
	}
	return out
}

// Backward accumulates gradients for the embedded ids.
func (e *Embedding) Backward(ids []int, dOut *tensor.Matrix) {
	tok, pos := e.Tok.Gradient(), e.Pos.Gradient()
	for t, idx := range ids {
		tensor.Axpy(1, dOut.Row(t), tok.Row(idx))
		tensor.Axpy(1, dOut.Row(t), pos.Row(t))
	}
}

// ---------------------------------------------------------------------------
// Linear
// ---------------------------------------------------------------------------

// Linear is y = x·W + b.
type Linear struct {
	W *Param // in × out
	B *Param // 1 × out
}

// NewLinear builds a linear layer with scaled-normal init.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		W: NewParam(name+".W", in, out, rng, 1/math.Sqrt(float64(in))),
		B: NewParam(name+".b", 1, out, rng, 0),
	}
	l.B.NoDecay = true
	return l
}

// Params lists trainable parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// LinearCache holds the forward input for backprop.
type LinearCache struct{ x *tensor.Matrix }

// Forward computes y = x·W + b in one fused kernel pass: the bias seeds
// each output accumulator (see tensor.MatMulBiasInto), which is also what
// the inference ApplyInto runs, keeping the two paths bit-identical.
func (l *Linear) Forward(x *tensor.Matrix, bw *Borrows) (*tensor.Matrix, *LinearCache) {
	y := bw.BorrowDirty(x.Rows, l.W.W.Cols)
	tensor.MatMulBiasInto(y, x, l.W.W, l.B.W.Row(0))
	return y, &LinearCache{x: x}
}

// Backward accumulates dW, db and returns dX.
func (l *Linear) Backward(c *LinearCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	dw := tensor.GetMatrixDirty(c.x.Cols, dOut.Cols) // MatMulATInto zeroes it
	tensor.MatMulATInto(dw, c.x, dOut)
	l.W.Gradient().AddInPlace(dw)
	tensor.PutMatrix(dw)
	bg := l.B.Gradient().Row(0)
	for i := 0; i < dOut.Rows; i++ {
		tensor.Axpy(1, dOut.Row(i), bg)
	}
	dx := bw.BorrowDirty(dOut.Rows, l.W.W.Rows)
	tensor.MatMulBTInto(dx, dOut, l.W.W)
	return dx
}

// ---------------------------------------------------------------------------
// LayerNorm
// ---------------------------------------------------------------------------

// LayerNorm normalizes each row to zero mean / unit variance with learned
// gain and bias.
type LayerNorm struct {
	Gamma *Param
	Beta  *Param
	Eps   float64
}

// NewLayerNorm builds a layer norm over dimension d.
func NewLayerNorm(name string, d int) *LayerNorm {
	ln := &LayerNorm{
		Gamma: &Param{Name: name + ".g", W: tensor.New(1, d), NoDecay: true},
		Beta:  &Param{Name: name + ".b", W: tensor.New(1, d), NoDecay: true},
		Eps:   1e-5,
	}
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] = 1
	}
	return ln
}

// Params lists trainable parameters.
func (ln *LayerNorm) Params() []*Param { return []*Param{ln.Gamma, ln.Beta} }

// LayerNormCache stores normalized activations and per-row inverse stddev
// (a rows×1 matrix).
type LayerNormCache struct {
	xhat   *tensor.Matrix
	invStd *tensor.Matrix
}

// Forward normalizes x row-wise.
func (ln *LayerNorm) Forward(x *tensor.Matrix, bw *Borrows) (*tensor.Matrix, *LayerNormCache) {
	d := x.Cols
	out := bw.BorrowDirty(x.Rows, d) // the row loop writes every element
	cache := &LayerNormCache{xhat: bw.BorrowDirty(x.Rows, d), invStd: bw.BorrowDirty(x.Rows, 1)}
	g := ln.Gamma.W.Row(0)
	b := ln.Beta.W.Row(0)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(d)
		vr := 0.0
		for _, v := range row {
			dv := v - mean
			vr += dv * dv
		}
		vr /= float64(d)
		inv := 1 / math.Sqrt(vr+ln.Eps)
		cache.invStd.Data[i] = inv
		xh := cache.xhat.Row(i)
		or := out.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			or[j] = xh[j]*g[j] + b[j]
		}
	}
	return out, cache
}

// Backward returns dX and accumulates dGamma, dBeta.
func (ln *LayerNorm) Backward(c *LayerNormCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	d := dOut.Cols
	dx := bw.BorrowDirty(dOut.Rows, d) // the row loop writes every element
	g := ln.Gamma.W.Row(0)
	gg := ln.Gamma.Gradient().Row(0)
	bg := ln.Beta.Gradient().Row(0)
	for i := 0; i < dOut.Rows; i++ {
		drow := dOut.Row(i)[:d]
		xh := c.xhat.Row(i)[:d]
		// One pass accumulates the parameter grads and, with dxhat = dOut *
		// gamma, the two row sums of the standard layer-norm backward; each
		// accumulator adds in element order.
		sumD, sumDX := 0.0, 0.0
		for j := range d {
			gg[j] += drow[j] * xh[j]
			bg[j] += drow[j]
			dxh := drow[j] * g[j]
			sumD += dxh
			sumDX += dxh * xh[j]
		}
		inv := c.invStd.Data[i]
		n := float64(d)
		meanD := sumD / n
		dxr := dx.Row(i)[:d]
		for j := range d {
			dxh := drow[j] * g[j]
			dxr[j] = (dxh - meanD - xh[j]*sumDX/n) * inv
		}
	}
	return dx
}

// ---------------------------------------------------------------------------
// ReLU and dropout
// ---------------------------------------------------------------------------

// ReLUCache holds the activation, which is its own mask: an element passed
// the gradient exactly when its output is > 0.
type ReLUCache struct{ out *tensor.Matrix }

// ReLU applies max(0, x) elementwise, returning a new matrix.
func ReLU(x *tensor.Matrix, bw *Borrows) (*tensor.Matrix, *ReLUCache) {
	out := bw.BorrowClone(x)
	for i, v := range out.Data {
		if !(v > 0) { // not v <= 0: a NaN becomes 0 too
			out.Data[i] = 0
		}
	}
	return out, &ReLUCache{out: out}
}

// ReLUBackward masks the upstream gradient.
func ReLUBackward(c *ReLUCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	dx := bw.BorrowClone(dOut)
	for i, v := range c.out.Data {
		if !(v > 0) {
			dx.Data[i] = 0
		}
	}
	return dx
}

// DropoutCache records the kept-element mask and scale.
type DropoutCache struct {
	mask  []bool
	scale float64
}

// Dropout zeroes elements with probability p and rescales survivors
// (inverted dropout). In eval mode (train=false) it is the identity. The
// noise source is the serializable RNG so training runs can checkpoint and
// resume the exact noise stream.
func Dropout(x *tensor.Matrix, p float64, train bool, rng *RNG, bw *Borrows) (*tensor.Matrix, *DropoutCache) {
	if !train || p <= 0 {
		return x, &DropoutCache{scale: 1}
	}
	out := bw.BorrowClone(x)
	c := &DropoutCache{mask: make([]bool, len(x.Data)), scale: 1 / (1 - p)}
	for i := range out.Data {
		if rng.Float64() < p {
			out.Data[i] = 0
		} else {
			c.mask[i] = true
			out.Data[i] *= c.scale
		}
	}
	return out, c
}

// DropoutBackward propagates gradients through the kept elements.
func DropoutBackward(c *DropoutCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	if c.mask == nil {
		return dOut
	}
	dx := bw.BorrowClone(dOut)
	for i := range dx.Data {
		if c.mask[i] {
			dx.Data[i] *= c.scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}
