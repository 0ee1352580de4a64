package nn

import (
	"math"
	"math/rand"

	"pragformer/internal/tensor"
)

// MultiHeadAttention is scaled dot-product self-attention with H heads over
// model dimension D (D divisible by H).
type MultiHeadAttention struct {
	WQ, WK, WV, WO *Linear
	Heads          int
	D              int
}

// NewMultiHeadAttention builds the four projections.
func NewMultiHeadAttention(name string, d, heads int, rng *rand.Rand) *MultiHeadAttention {
	if d%heads != 0 {
		panic("nn: model dim not divisible by heads")
	}
	return &MultiHeadAttention{
		WQ:    NewLinear(name+".wq", d, d, rng),
		WK:    NewLinear(name+".wk", d, d, rng),
		WV:    NewLinear(name+".wv", d, d, rng),
		WO:    NewLinear(name+".wo", d, d, rng),
		Heads: heads,
		D:     d,
	}
}

// Params lists trainable parameters.
func (m *MultiHeadAttention) Params() []*Param {
	var ps []*Param
	for _, l := range []*Linear{m.WQ, m.WK, m.WV, m.WO} {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// AttnCache stores per-head activations for backprop and explainability.
type AttnCache struct {
	q, k, v    *tensor.Matrix
	cq, ck, cv *LinearCache
	co         *LinearCache
	heads      int
	attn       *tensor.Matrix // post-softmax, (H·nq)×T: head h at rows [h·nq, (h+1)·nq)
}

// Attention returns the post-softmax attention matrices per head, each
// nq×T: query row i's weights over every key (for the explainability
// study). They are views of the cache's one batched buffer.
func (c *AttnCache) Attention() []*tensor.Matrix {
	nq, T := c.attn.Rows/c.heads, c.attn.Cols
	out := make([]*tensor.Matrix, c.heads)
	for h := range out {
		out[h] = tensor.FromSlice(nq, T, c.attn.Data[h*nq*T:(h+1)*nq*T])
	}
	return out
}

// head returns the column sub-slice view [h*dh, (h+1)*dh) of row i.
func headSlice(m *tensor.Matrix, i, h, dh int) []float64 {
	row := m.Row(i)
	return row[h*dh : (h+1)*dh]
}

// rowsView returns the first n rows of m, sharing its storage. A literal
// rather than tensor.FromSlice, which does not inline: a view that does not
// outlive its statement then stays on the stack.
func rowsView(m *tensor.Matrix, n int) *tensor.Matrix {
	return &tensor.Matrix{Rows: n, Cols: m.Cols, Data: m.Data[:n*m.Cols]}
}

// Forward computes self-attention for the first nq rows of x (T×D) over
// the keys and values of all T rows, returning nq×D. Keys and values span
// every row, so their projections stay full-width; queries, scores,
// softmax, mix and the output projection run on nq rows alone. Each kept
// row is the same row-independent kernel chain it is at nq = T, so the
// result is bit-identical to the first nq rows of the full forward. All
// heads run as one strided batched GEMM per product: QKᵀ scores land in a
// single (H·nq)×T matrix (head h at rows [h·nq, (h+1)·nq)), softmax runs
// over all H·nq rows in one call, and the value mix writes every head's
// column band of concat in one pass (tensor.AttnScoresInto / AttnMixInto)
// — the same helpers the inference paths use, keeping training and
// serving forwards bit-identical.
func (m *MultiHeadAttention) Forward(x *tensor.Matrix, nq int, bw *Borrows) (*tensor.Matrix, *AttnCache) {
	T := x.Rows
	dh := m.D / m.Heads
	c := &AttnCache{heads: m.Heads}
	c.q, c.cq = m.WQ.Forward(rowsView(x, nq), bw)
	c.k, c.ck = m.WK.Forward(x, bw)
	c.v, c.cv = m.WV.Forward(x, bw)
	concat := bw.Borrow(nq, m.D)
	scale := 1 / math.Sqrt(float64(dh))

	c.attn = bw.Borrow(m.Heads*nq, T)
	tensor.AttnScoresInto(c.attn, c.q, c.k, m.Heads, scale)
	tensor.RowSoftmax(c.attn)
	tensor.AttnMixInto(concat, c.attn, c.v, m.Heads)

	out, co := m.WO.Forward(concat, bw)
	c.co = co
	return out, c
}

// Backward propagates the nq-row dOut through the attention block,
// returning the T-row dX. Rows past nq carried no gradient, so every sum
// they would have entered gains only ±0 terms: the parameter gradients are
// bit-identical, and dX value-identical, to a full-width backward whose
// dOut is zero past row nq.
func (m *MultiHeadAttention) Backward(c *AttnCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	nq, T := dOut.Rows, c.k.Rows
	dh := m.D / m.Heads
	scale := 1 / math.Sqrt(float64(dh))

	dConcat := m.WO.Backward(c.co, dOut, bw)
	dQ := tensor.GetMatrix(nq, m.D)
	dK := tensor.GetMatrix(T, m.D)
	dV := tensor.GetMatrix(T, m.D)
	dAttn := tensor.GetMatrixDirty(nq, T)

	for h := 0; h < m.Heads; h++ {
		// dV and dAttn from dConcat. Every dAttn element is assigned below
		// before it is read, so the buffer can be reused dirty across heads.
		for i := 0; i < nq; i++ {
			dcRow := headSlice(dConcat, i, h, dh)
			arow := c.attn.Row(h*nq + i)
			daRow := dAttn.Row(i)
			for j := 0; j < T; j++ {
				// dV[j] += attn[i][j] * dConcat[i]
				tensor.Axpy(arow[j], dcRow, headSlice(dV, j, h, dh))
				// dAttn[i][j] = dot(dConcat[i], V[j])
				daRow[j] = tensor.Dot(dcRow, headSlice(c.v, j, h, dh))
			}
		}
		// Softmax backward per row: dS = A ⊙ (dA - Σ_j dA_j A_j).
		for i := 0; i < nq; i++ {
			arow := c.attn.Row(h*nq + i)
			daRow := dAttn.Row(i)
			dot := tensor.Dot(daRow, arow)
			for j := 0; j < T; j++ {
				daRow[j] = arow[j] * (daRow[j] - dot)
			}
		}
		// dQ, dK from dScores (still in dAttn, scaled).
		for i := 0; i < nq; i++ {
			daRow := dAttn.Row(i)
			dqRow := headSlice(dQ, i, h, dh)
			for j := 0; j < T; j++ {
				g := daRow[j] * scale
				if g == 0 {
					continue
				}
				tensor.Axpy(g, headSlice(c.k, j, h, dh), dqRow)
				tensor.Axpy(g, headSlice(c.q, i, h, dh), headSlice(dK, j, h, dh))
			}
		}
	}

	// dX = (dXq + dXk) + dXv, the query term present on the first nq rows
	// only; addition commutes, so those rows keep the full-width bits.
	dx := m.WK.Backward(c.ck, dK, bw)
	rowsView(dx, nq).AddInPlace(m.WQ.Backward(c.cq, dQ, bw))
	dx.AddInPlace(m.WV.Backward(c.cv, dV, bw))
	tensor.PutMatrix(dAttn)
	tensor.PutMatrix(dQ)
	tensor.PutMatrix(dK)
	tensor.PutMatrix(dV)
	return dx
}

// ---------------------------------------------------------------------------
// Feed-forward network
// ---------------------------------------------------------------------------

// FFN is the position-wise two-layer network with ReLU.
type FFN struct {
	L1, L2 *Linear
}

// NewFFN builds a d→hidden→d FFN.
func NewFFN(name string, d, hidden int, rng *rand.Rand) *FFN {
	return &FFN{
		L1: NewLinear(name+".l1", d, hidden, rng),
		L2: NewLinear(name+".l2", hidden, d, rng),
	}
}

// Params lists trainable parameters.
func (f *FFN) Params() []*Param { return append(f.L1.Params(), f.L2.Params()...) }

// FFNCache stores intermediate activations.
type FFNCache struct {
	c1 *LinearCache
	cr *ReLUCache
	c2 *LinearCache
}

// Forward applies L2(ReLU(L1(x))).
func (f *FFN) Forward(x *tensor.Matrix, bw *Borrows) (*tensor.Matrix, *FFNCache) {
	h, c1 := f.L1.Forward(x, bw)
	a, cr := ReLU(h, bw)
	y, c2 := f.L2.Forward(a, bw)
	return y, &FFNCache{c1: c1, cr: cr, c2: c2}
}

// Backward returns dX.
func (f *FFN) Backward(c *FFNCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	da := f.L2.Backward(c.c2, dOut, bw)
	dh := ReLUBackward(c.cr, da, bw)
	return f.L1.Backward(c.c1, dh, bw)
}

// ---------------------------------------------------------------------------
// Encoder block (pre-norm residual)
// ---------------------------------------------------------------------------

// EncoderBlock is x + Attn(LN1(x)) followed by x + FFN(LN2(x)).
type EncoderBlock struct {
	LN1  *LayerNorm
	Attn *MultiHeadAttention
	LN2  *LayerNorm
	FF   *FFN
	Drop float64
}

// NewEncoderBlock builds one transformer encoder layer.
func NewEncoderBlock(name string, d, heads, ffHidden int, drop float64, rng *rand.Rand) *EncoderBlock {
	return &EncoderBlock{
		LN1:  NewLayerNorm(name+".ln1", d),
		Attn: NewMultiHeadAttention(name+".attn", d, heads, rng),
		LN2:  NewLayerNorm(name+".ln2", d),
		FF:   NewFFN(name+".ffn", d, ffHidden, rng),
		Drop: drop,
	}
}

// Params lists trainable parameters.
func (b *EncoderBlock) Params() []*Param {
	var ps []*Param
	ps = append(ps, b.LN1.Params()...)
	ps = append(ps, b.Attn.Params()...)
	ps = append(ps, b.LN2.Params()...)
	ps = append(ps, b.FF.Params()...)
	return ps
}

// BlockCache stores sub-layer caches.
type BlockCache struct {
	cn1 *LayerNormCache
	ca  *AttnCache
	cd1 *DropoutCache
	cn2 *LayerNormCache
	cf  *FFNCache
	cd2 *DropoutCache
}

// Forward runs the block for the first nq rows of x (T×D), returning
// nq×D: attention reads the keys and values of every row, so LN1 and the
// K/V projections stay full-width, while everything after them — the
// queries, scores, mix, output projection, residual, LN2, FFN and both
// dropouts — runs on nq rows. nq = T is the full block; a classifier's last
// block needs only the [CLS] row, nq = 1. train enables dropout using rng.
func (b *EncoderBlock) Forward(x *tensor.Matrix, nq int, train bool, rng *RNG, bw *Borrows) (*tensor.Matrix, *BlockCache) {
	c := &BlockCache{}
	n1, cn1 := b.LN1.Forward(x, bw)
	c.cn1 = cn1
	a, ca := b.Attn.Forward(n1, nq, bw)
	c.ca = ca
	a, c.cd1 = b.dropout(a, x.Rows, train, rng, bw)
	h := bw.BorrowClone(rowsView(x, nq))
	h.AddInPlace(a)

	n2, cn2 := b.LN2.Forward(h, bw)
	c.cn2 = cn2
	f, cf := b.FF.Forward(n2, bw)
	c.cf = cf
	f, c.cd2 = b.dropout(f, x.Rows, train, rng, bw)
	out := bw.BorrowClone(h)
	out.AddInPlace(f)
	return out, c
}

// dropout applies the block's dropout to x, the first rows of a T-row
// activation, then advances rng past the draws the remaining T − x.Rows
// rows would have taken: the noise stream, and so every run trained with
// dropout, is the same whatever rows a block computes.
func (b *EncoderBlock) dropout(x *tensor.Matrix, T int, train bool, rng *RNG, bw *Borrows) (*tensor.Matrix, *DropoutCache) {
	y, c := Dropout(x, b.Drop, train, rng, bw)
	if c.mask != nil {
		rng.Skip((T - x.Rows) * x.Cols)
	}
	return y, c
}

// Backward takes the nq-row dOut of Forward and returns the T-row dX.
func (b *EncoderBlock) Backward(c *BlockCache, dOut *tensor.Matrix, bw *Borrows) *tensor.Matrix {
	dF := DropoutBackward(c.cd2, dOut, bw)
	dN2 := b.FF.Backward(c.cf, dF, bw)
	dH := b.LN2.Backward(c.cn2, dN2, bw)
	dH.AddInPlace(dOut) // residual

	dA := DropoutBackward(c.cd1, dH, bw)
	dN1 := b.Attn.Backward(c.ca, dA, bw)
	dX := b.LN1.Backward(c.cn1, dN1, bw)
	rowsView(dX, dH.Rows).AddInPlace(dH) // residual, on the rows computed
	return dX
}
