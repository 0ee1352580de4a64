package nn

import (
	"math"

	"pragformer/internal/tensor"
)

// The inference forward — the only one in the repository. The training
// forwards in nn.go and attention.go return per-layer caches because
// Backward needs them; at serving time those caches are pure overhead. The
// forward below runs the identical arithmetic (bit-exact with the training
// forwards, which the core batch tests assert) over a *ragged batch* of
// sequences stacked row-wise into one matrix, with every intermediate drawn
// from the tensor buffer pool and no cache construction.
//
// What a weight format can change sits behind two interfaces: Projection
// (*Linear in float64, quant.Linear in int8) and QKVProjection
// (*MultiHeadAttention, quant.Attention). Everything else — embedding,
// layer norm, attention scores and mixing, residuals, [CLS] pruning, the
// head — is written once, against views (Norm, AttentionView, BlockView,
// Classifier) a model builds per call: plain values holding slices and
// pointer-typed interfaces, so building one allocates nothing.
//
// Ragged layout: B sequences of lengths T_0..T_{B-1} are stacked into a
// (ΣT_i)×D matrix; offs has length B+1 and sequence i owns rows
// [offs[i], offs[i+1]). Row-local ops (projections, layer norm, ReLU)
// ignore the boundaries; attention mixes rows only within a sequence.

// Projection is one weight matmul with its bias, in whatever format the
// weights are stored. Both methods fully assign dst, which must not alias x.
type Projection interface {
	// ApplyInto computes dst = x·W + b.
	ApplyInto(dst, x *tensor.Matrix)
	// ApplyReLUInto computes dst = max(0, x·W + b) — the FFN/classifier
	// hidden-layer epilogue.
	ApplyReLUInto(dst, x *tensor.Matrix)
}

// QKVProjection projects one attention input through the key and value
// weights into k and v and, unless q is nil, through the query weights into
// q. It is one call rather than three Projections so that a format which
// transforms the input first (int8 quantizes it) does so once.
type QKVProjection interface {
	ApplyQKVInto(q, k, v, x *tensor.Matrix)
}

// ApplyInto computes dst = x·W + b without retaining a cache, via the same
// fused bias kernel Forward uses (bit-identical). dst must not alias x; it
// is fully assigned.
func (l *Linear) ApplyInto(dst, x *tensor.Matrix) {
	tensor.MatMulBiasInto(dst, x, l.W.W, l.B.W.Row(0))
}

// ApplyReLUInto computes dst = max(0, x·W + b) with the activation folded
// into the kernel's store loop — the FFN/classifier hidden-layer epilogue.
// Value-identical to ReLU over Forward. dst must not alias x; it is fully
// assigned.
func (l *Linear) ApplyReLUInto(dst, x *tensor.Matrix) {
	tensor.MatMulBiasReLUInto(dst, x, l.W.W, l.B.W.Row(0))
}

// ApplyQKVInto runs the float64 query (when q is non-nil), key and value
// projections of x (QKVProjection).
func (m *MultiHeadAttention) ApplyQKVInto(q, k, v, x *tensor.Matrix) {
	if q != nil {
		m.WQ.ApplyInto(q, x)
	}
	m.WK.ApplyInto(k, x)
	m.WV.ApplyInto(v, x)
}

// Norm is the inference view of a layer norm: the gain and bias rows and
// the epsilon, wherever they are stored. Normalization is float64 in every
// weight format.
type Norm struct {
	Gamma, Beta []float64
	Eps         float64
}

// InferView returns the layer norm's inference view, aliasing its
// parameters.
func (ln *LayerNorm) InferView() Norm {
	return Norm{Gamma: ln.Gamma.W.Row(0), Beta: ln.Beta.W.Row(0), Eps: ln.Eps}
}

// ApplyInto normalizes x row-wise into dst without retaining a cache,
// mirroring LayerNorm.Forward's arithmetic exactly. dst may alias x.
func (n Norm) ApplyInto(dst, x *tensor.Matrix) {
	d := x.Cols
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
		inv := 1 / math.Sqrt(vr+n.Eps)
		tensor.NormScaleInto(dst.Row(i), row, mean, inv, n.Gamma, n.Beta)
	}
}

// AttentionView is the inference view of multi-head self-attention: the
// projections in their weight format, the score/softmax/mix arithmetic
// here in float64.
type AttentionView struct {
	QKV    QKVProjection
	WQ, WO Projection // WQ alone projects the [CLS] rows' queries
	Heads  int
}

// maxSeqLen returns the longest sequence length in a ragged batch layout.
func maxSeqLen(offs []int) int {
	maxT := 1 // never zero: scratch slicing needs a non-empty buffer
	for s := 0; s+1 < len(offs); s++ {
		if T := offs[s+1] - offs[s]; T > maxT {
			maxT = T
		}
	}
	return maxT
}

// attendInto is the float64 half of attention — scores, softmax and value
// mix, all heads of a sequence in one strided batched GEMM each — for every
// sequence of the ragged batch. Keys and values of sequence s are rows
// [offs[s], offs[s+1]) of k and v. With cls unset its queries are the same
// rows of q and the result lands in those rows of concat; with cls set q
// and concat hold one row per sequence, the [CLS] query, and scores is H×T
// (Tq = 1 in the strided layout). Rows of concat belonging to an empty
// sequence are left untouched.
func (a AttentionView) attendInto(concat, q, k, v *tensor.Matrix, offs []int, cls bool) {
	d := k.Cols
	scale := 1 / math.Sqrt(float64(d/a.Heads))
	// One score scratch sized for all heads of the longest sequence serves
	// every sequence of the batch as an (H·Tq)×T view — per-sequence pool
	// traffic for matrices too small to pool was the batch path's last
	// allocation hot spot.
	maxT := maxSeqLen(offs)
	maxTq := maxT
	if cls {
		maxTq = 1
	}
	scoresBuf := tensor.GetVecDirty(a.Heads * maxTq * maxT)
	for s := 0; s+1 < len(offs); s++ {
		lo, hi := offs[s], offs[s+1]
		T := hi - lo
		if T == 0 {
			continue
		}
		qlo, qhi := lo, hi
		if cls {
			qlo, qhi = s, s+1
		}
		Tq := qhi - qlo
		qs := tensor.Matrix{Rows: Tq, Cols: d, Data: q.Data[qlo*d : qhi*d]}
		ks := tensor.Matrix{Rows: T, Cols: d, Data: k.Data[lo*d : hi*d]}
		vs := tensor.Matrix{Rows: T, Cols: d, Data: v.Data[lo*d : hi*d]}
		cs := tensor.Matrix{Rows: Tq, Cols: d, Data: concat.Data[qlo*d : qhi*d]}
		scores := tensor.Matrix{Rows: a.Heads * Tq, Cols: T, Data: scoresBuf[:a.Heads*Tq*T]}
		tensor.AttnScoresInto(&scores, &qs, &ks, a.Heads, scale)
		tensor.RowSoftmax(&scores)
		tensor.AttnMixInto(&cs, &scores, &vs, a.Heads)
	}
	tensor.PutVec(scoresBuf)
}

// ApplyBatchInto computes self-attention over the ragged batch x into dst
// (same shape), attending only within each sequence. dst is fully assigned.
func (a AttentionView) ApplyBatchInto(dst, x *tensor.Matrix, offs []int) {
	q := tensor.GetMatrixDirty(x.Rows, x.Cols)
	k := tensor.GetMatrixDirty(x.Rows, x.Cols)
	v := tensor.GetMatrixDirty(x.Rows, x.Cols)
	a.QKV.ApplyQKVInto(q, k, v, x)
	// Dirty is safe: every row belongs to some non-empty sequence and the
	// strided mix fully assigns those rows.
	concat := tensor.GetMatrixDirty(x.Rows, x.Cols)
	a.attendInto(concat, q, k, v, offs, false)
	a.WO.ApplyInto(dst, concat)
	tensor.PutMatrix(concat)
	tensor.PutMatrix(v)
	tensor.PutMatrix(k)
	tensor.PutMatrix(q)
}

// ApplyCLSInto computes only the first attention output row of each
// sequence (the [CLS] position) into dst, which must be B×D for B
// sequences. Queries are needed for the CLS rows alone, but keys and values
// still span every row, so the K/V projections remain full-width — the
// savings are the Q and output projections and the (T²−T) score rows per
// head. Bit-exact with row offs[s] of ApplyBatchInto's result.
func (a AttentionView) ApplyCLSInto(dst, x *tensor.Matrix, offs []int) {
	B := len(offs) - 1
	k := tensor.GetMatrixDirty(x.Rows, x.Cols)
	v := tensor.GetMatrixDirty(x.Rows, x.Cols)
	a.QKV.ApplyQKVInto(nil, k, v, x)

	xcls := tensor.GetMatrixDirty(B, x.Cols)
	for s := 0; s < B; s++ {
		copy(xcls.Row(s), x.Row(offs[s]))
	}
	q := tensor.GetMatrixDirty(B, x.Cols)
	a.WQ.ApplyInto(q, xcls)
	tensor.PutMatrix(xcls)

	concat := tensor.GetMatrix(B, x.Cols) // zeroed: empty sequences keep zero rows
	a.attendInto(concat, q, k, v, offs, true)
	a.WO.ApplyInto(dst, concat)
	tensor.PutMatrix(concat)
	tensor.PutMatrix(v)
	tensor.PutMatrix(k)
	tensor.PutMatrix(q)
}

// BlockView is the inference view of one pre-norm encoder block.
type BlockView struct {
	LN1, LN2 Norm
	Attn     AttentionView
	FF1, FF2 Projection
	FFHidden int // FF1's output width
}

// InferView returns the block's float64 inference view.
func (b *EncoderBlock) InferView() BlockView {
	return BlockView{
		LN1: b.LN1.InferView(), LN2: b.LN2.InferView(),
		Attn: AttentionView{QKV: b.Attn, WQ: b.Attn.WQ, WO: b.Attn.WO, Heads: b.Attn.Heads},
		FF1:  b.FF.L1, FF2: b.FF.L2, FFHidden: b.FF.L1.W.W.Cols,
	}
}

// InferBatch runs the encoder block over the ragged batch in eval mode
// (dropout is the identity), returning a pooled matrix the caller must
// release with tensor.PutMatrix. x is left intact.
func (b BlockView) InferBatch(x *tensor.Matrix, offs []int) *tensor.Matrix {
	n1 := tensor.GetMatrixDirty(x.Rows, x.Cols)
	b.LN1.ApplyInto(n1, x)
	a := tensor.GetMatrixDirty(x.Rows, x.Cols)
	b.Attn.ApplyBatchInto(a, n1, offs)
	h := n1 // n1 is dead after attention; reuse it for the residual
	tensor.AddInto(h, x, a)
	return b.feedForward(h, a)
}

// InferCLS runs the encoder block in eval mode computing only the [CLS]
// output row of each sequence, returning a pooled B×D matrix the caller
// must release. Only valid as the *last* block of a classifier stack: rows
// other than CLS are never produced, so a subsequent block's attention
// would see garbage. Bit-exact with the CLS rows of InferBatch.
func (b BlockView) InferCLS(x *tensor.Matrix, offs []int) *tensor.Matrix {
	B := len(offs) - 1
	n1 := tensor.GetMatrixDirty(x.Rows, x.Cols)
	b.LN1.ApplyInto(n1, x)
	a := tensor.GetMatrixDirty(B, x.Cols)
	b.Attn.ApplyCLSInto(a, n1, offs)
	tensor.PutMatrix(n1)

	h := tensor.GetMatrixDirty(B, x.Cols)
	for s := 0; s < B; s++ {
		xr := x.Row(offs[s])
		ar := a.Row(s)
		hr := h.Row(s)
		for j := range hr {
			hr[j] = xr[j] + ar[j]
		}
	}
	return b.feedForward(h, a)
}

// feedForward finishes a block from its post-attention residual stream h:
// it returns h + FF2(relu(FF1(LN2(h)))) in a pooled matrix the caller must
// release. It takes ownership of h and of scratch, a pooled matrix of h's
// shape whose contents are dead, and releases both.
func (b BlockView) feedForward(h, scratch *tensor.Matrix) *tensor.Matrix {
	b.LN2.ApplyInto(scratch, h)
	hid := tensor.GetMatrixDirty(h.Rows, b.FFHidden)
	b.FF1.ApplyReLUInto(hid, scratch)
	b.FF2.ApplyInto(scratch, hid) // the normed rows are dead after FF1
	tensor.PutMatrix(hid)

	out := tensor.GetMatrixDirty(h.Rows, h.Cols)
	tensor.AddInto(out, h, scratch)
	tensor.PutMatrix(scratch)
	tensor.PutMatrix(h)
	return out
}

// Classifier is the inference view of a whole PragFormer: embedding tables,
// encoder blocks of type B (anything that yields a BlockView), final layer
// norm and the two-layer head. Its methods are the batch-first prediction
// surface both backends expose; they only read the weights, so they are
// safe for concurrent use.
type Classifier[B interface{ InferView() BlockView }] struct {
	Tok, Pos *tensor.Matrix // vocab×D token and maxLen×D positional tables
	Blocks   []B
	FinalLN  Norm
	FC1, FC2 Projection
	FCHidden int // FC1's output width
}

// EmbedBatchInto embeds the ragged batch seqs into dst, each sequence
// truncated to the positional table, so dst must have Σ min(T_i, maxLen)
// rows. Positional embeddings restart at 0 for each sequence. dst is fully
// assigned.
func (c Classifier[B]) EmbedBatchInto(dst *tensor.Matrix, seqs [][]int) {
	r := 0
	for _, ids := range seqs {
		for t, idx := range ids[:min(len(ids), c.Pos.Rows)] {
			row := dst.Row(r)
			copy(row, c.Tok.Row(idx))
			tensor.Axpy(1, c.Pos.Row(t), row)
			r++
		}
	}
}

// maxStackBatch is the largest batch whose row offsets the forward keeps in
// a stack array; a larger one allocates them.
const maxStackBatch = 32

// forward is the one forward both prediction methods share: sequences
// longer than the positional table are truncated to it, all blocks but the
// last run full-width, and only the [CLS] row of the last block, final
// layer norm and head is ever computed — the rows that cannot influence
// the output are skipped. It hands each sequence's class probabilities to
// emit, in batch order. It panics on an empty sequence, which has no [CLS]
// row to classify; callers fed from outside validate first.
func (c Classifier[B]) forward(idsBatch [][]int, emit func(i int, probs [2]float64)) {
	n := len(idsBatch)
	if n == 0 {
		return
	}
	var stack [maxStackBatch + 1]int
	offs := stack[:]
	if n > maxStackBatch {
		offs = make([]int, n+1)
	}
	offs = offs[:n+1]
	for i, ids := range idsBatch {
		if len(ids) == 0 {
			panic("nn: PredictBatch on empty id sequence")
		}
		offs[i+1] = offs[i] + min(len(ids), c.Pos.Rows)
	}

	x := tensor.GetMatrixDirty(offs[n], c.Tok.Cols)
	c.EmbedBatchInto(x, idsBatch)
	last := len(c.Blocks) - 1
	for _, b := range c.Blocks[:last] {
		next := b.InferView().InferBatch(x, offs)
		tensor.PutMatrix(x)
		x = next
	}
	cls := c.Blocks[last].InferView().InferCLS(x, offs)
	tensor.PutMatrix(x)

	hidden := tensor.GetMatrixDirty(n, c.Tok.Cols)
	c.FinalLN.ApplyInto(hidden, cls)
	tensor.PutMatrix(cls)
	h := tensor.GetMatrixDirty(n, c.FCHidden)
	c.FC1.ApplyReLUInto(h, hidden)
	tensor.PutMatrix(hidden)
	logits := tensor.GetMatrixDirty(n, 2)
	c.FC2.ApplyInto(logits, h)
	tensor.PutMatrix(h)
	for i := 0; i < n; i++ {
		var p [2]float64
		tensor.SoftmaxVecInto(p[:], logits.Row(i))
		emit(i, p)
	}
	tensor.PutMatrix(logits)
}

// PredictBatchProbs returns both class probabilities for every sequence.
// For a batch of up to maxStackBatch sequences the result is the call's
// only allocation.
func (c Classifier[B]) PredictBatchProbs(idsBatch [][]int) [][2]float64 {
	out := make([][2]float64, len(idsBatch))
	c.forward(idsBatch, func(i int, p [2]float64) { out[i] = p })
	return out
}

// PredictBatchInto writes the positive-class probability of sequence i into
// dst[i]; dst must hold at least len(idsBatch) slots. For a batch of up to
// maxStackBatch sequences it allocates nothing.
func (c Classifier[B]) PredictBatchInto(dst []float64, idsBatch [][]int) {
	if len(dst) < len(idsBatch) {
		panic("nn: PredictBatchInto into a slice shorter than the batch")
	}
	c.forward(idsBatch, func(i int, p [2]float64) { dst[i] = p[1] })
}

// PredictBatch is PredictBatchInto into a slice of its own, allocating as
// PredictBatchProbs does.
func (c Classifier[B]) PredictBatch(idsBatch [][]int) []float64 {
	out := make([]float64, len(idsBatch))
	c.PredictBatchInto(out, idsBatch)
	return out
}
