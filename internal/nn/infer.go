package nn

import (
	"math"

	"pragformer/internal/tensor"
)

// Inference-only batched forwards. The training forwards in nn.go and
// attention.go return per-layer caches because Backward needs them; at
// serving time those caches are pure overhead — per call they allocate a
// dozen sequence-sized matrices that die immediately. The Apply*/Infer*
// family below runs the identical arithmetic (bit-exact with the training
// forwards, which the core batch tests assert) over a *ragged batch* of
// sequences stacked row-wise into one matrix, with every intermediate drawn
// from the tensor buffer pool and no cache construction.
//
// Ragged layout: B sequences of lengths T_0..T_{B-1} are stacked into a
// (ΣT_i)×D matrix; offs has length B+1 and sequence i owns rows
// [offs[i], offs[i+1]). Row-local ops (Linear, LayerNorm, ReLU) ignore the
// boundaries; attention respects them, mixing rows only within a sequence.
//
// Stacking also feeds the parallel kernel layer better: one MatMul over
// ΣT rows crosses tensor's parallel threshold where B separate T-row
// products would not, so batches fan out across the worker pool on
// multi-core hosts.

// ForwardBatchInto embeds the ragged batch seqs into dst, which must have
// ΣT_i rows. Positional embeddings restart at 0 for each sequence. dst is
// fully assigned.
func (e *Embedding) ForwardBatchInto(dst *tensor.Matrix, seqs [][]int) {
	r := 0
	for _, ids := range seqs {
		for t, idx := range ids {
			row := dst.Row(r)
			copy(row, e.Tok.W.Row(idx))
			tensor.Axpy(1, e.Pos.W.Row(t), row)
			r++
		}
	}
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

// ApplyInto computes dst = x·W + b without retaining a cache, via the same
// fused bias kernel Forward uses (bit-identical). dst must not alias x; it
// is fully assigned.
func (l *Linear) ApplyInto(dst, x *tensor.Matrix) {
	tensor.MatMulBiasInto(dst, x, l.W.W, l.B.W.Row(0))
}

// ApplyReLUInto computes dst = max(0, x·W + b) with the activation folded
// into the kernel's store loop — the FFN/classifier hidden-layer epilogue.
// Value-identical to ApplyInto followed by ReLUInPlace. dst must not alias
// x; it is fully assigned.
func (l *Linear) ApplyReLUInto(dst, x *tensor.Matrix) {
	tensor.MatMulBiasReLUInto(dst, x, l.W.W, l.B.W.Row(0))
}

// ApplyInto normalizes x row-wise into dst without retaining a cache,
// mirroring Forward's arithmetic exactly. dst may alias x.
func (ln *LayerNorm) ApplyInto(dst, x *tensor.Matrix) {
	d := x.Cols
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
		tensor.NormScaleInto(dst.Row(i), row, mean, inv, g, b)
	}
}

// ReLUInPlace applies max(0, x) elementwise without recording a mask.
func ReLUInPlace(x *tensor.Matrix) {
	for i, v := range x.Data {
		if v <= 0 {
			x.Data[i] = 0
		}
	}
}

// ApplyBatchInto computes self-attention over the ragged batch x into dst
// (same shape), attending only within each sequence. dst is fully assigned.
func (m *MultiHeadAttention) ApplyBatchInto(dst, x *tensor.Matrix, offs []int) {
	dh := m.D / m.Heads
	scale := 1 / math.Sqrt(float64(dh))
	q := tensor.GetMatrixDirty(x.Rows, m.D)
	k := tensor.GetMatrixDirty(x.Rows, m.D)
	v := tensor.GetMatrixDirty(x.Rows, m.D)
	m.WQ.ApplyInto(q, x)
	m.WK.ApplyInto(k, x)
	m.WV.ApplyInto(v, x)
	// Dirty is safe: every row belongs to some non-empty sequence and the
	// strided mix fully assigns those rows.
	concat := tensor.GetMatrixDirty(x.Rows, m.D)

	// One score scratch sized for all heads of the longest sequence serves
	// every sequence of the batch as an (H·T)×T view — per-sequence pool
	// traffic for matrices too small to pool was the batch path's last
	// allocation hot spot.
	maxT := maxSeqLen(offs)
	scoresBuf := tensor.GetVecDirty(m.Heads * maxT * maxT)
	for s := 0; s+1 < len(offs); s++ {
		lo, hi := offs[s], offs[s+1]
		T := hi - lo
		if T == 0 {
			continue
		}
		// All heads of the sequence in one strided batched GEMM each:
		// scores, softmax over every head-row, then the value mix.
		qs := tensor.Matrix{Rows: T, Cols: m.D, Data: q.Data[lo*m.D : hi*m.D]}
		ks := tensor.Matrix{Rows: T, Cols: m.D, Data: k.Data[lo*m.D : hi*m.D]}
		vs := tensor.Matrix{Rows: T, Cols: m.D, Data: v.Data[lo*m.D : hi*m.D]}
		cs := tensor.Matrix{Rows: T, Cols: m.D, Data: concat.Data[lo*m.D : hi*m.D]}
		scores := tensor.Matrix{Rows: m.Heads * T, Cols: T, Data: scoresBuf[:m.Heads*T*T]}
		tensor.AttnScoresInto(&scores, &qs, &ks, m.Heads, scale)
		tensor.RowSoftmax(&scores)
		tensor.AttnMixInto(&cs, &scores, &vs, m.Heads)
	}
	tensor.PutVec(scoresBuf)
	m.WO.ApplyInto(dst, concat)
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
func (m *MultiHeadAttention) ApplyCLSInto(dst, x *tensor.Matrix, offs []int) {
	B := len(offs) - 1
	dh := m.D / m.Heads
	scale := 1 / math.Sqrt(float64(dh))
	k := tensor.GetMatrixDirty(x.Rows, m.D)
	v := tensor.GetMatrixDirty(x.Rows, m.D)
	m.WK.ApplyInto(k, x)
	m.WV.ApplyInto(v, x)

	xcls := tensor.GetMatrixDirty(B, m.D)
	for s := 0; s < B; s++ {
		copy(xcls.Row(s), x.Row(offs[s]))
	}
	q := tensor.GetMatrixDirty(B, m.D)
	m.WQ.ApplyInto(q, xcls)
	tensor.PutMatrix(xcls)

	concat := tensor.GetMatrix(B, m.D) // zeroed: empty sequences keep zero rows
	scoresBuf := tensor.GetVecDirty(m.Heads * maxSeqLen(offs))
	for s := 0; s < B; s++ {
		lo, hi := offs[s], offs[s+1]
		T := hi - lo
		if T == 0 {
			continue
		}
		// One query row per head: scores is H×T (Tq = 1 in the strided
		// batched layout), mixed into the single concat row.
		qs := tensor.Matrix{Rows: 1, Cols: m.D, Data: q.Data[s*m.D : (s+1)*m.D]}
		ks := tensor.Matrix{Rows: T, Cols: m.D, Data: k.Data[lo*m.D : hi*m.D]}
		vs := tensor.Matrix{Rows: T, Cols: m.D, Data: v.Data[lo*m.D : hi*m.D]}
		cs := tensor.Matrix{Rows: 1, Cols: m.D, Data: concat.Data[s*m.D : (s+1)*m.D]}
		scores := tensor.Matrix{Rows: m.Heads, Cols: T, Data: scoresBuf[:m.Heads*T]}
		tensor.AttnScoresInto(&scores, &qs, &ks, m.Heads, scale)
		tensor.RowSoftmax(&scores)
		tensor.AttnMixInto(&cs, &scores, &vs, m.Heads)
	}
	tensor.PutVec(scoresBuf)
	m.WO.ApplyInto(dst, concat)
	tensor.PutMatrix(concat)
	tensor.PutMatrix(v)
	tensor.PutMatrix(k)
	tensor.PutMatrix(q)
}

// InferBatch runs the encoder block over the ragged batch in eval mode
// (dropout is the identity), returning a pooled matrix the caller must
// release with tensor.PutMatrix. x is left intact.
func (b *EncoderBlock) InferBatch(x *tensor.Matrix, offs []int) *tensor.Matrix {
	rows, d := x.Rows, x.Cols
	n1 := tensor.GetMatrixDirty(rows, d)
	b.LN1.ApplyInto(n1, x)
	a := tensor.GetMatrixDirty(rows, d)
	b.Attn.ApplyBatchInto(a, n1, offs)
	h := n1 // n1 is dead after attention; reuse it for the residual
	tensor.AddInto(h, x, a)

	n2 := a // a is dead after the residual
	b.LN2.ApplyInto(n2, h)
	hid := tensor.GetMatrixDirty(rows, b.FF.L1.W.W.Cols)
	b.FF.L1.ApplyReLUInto(hid, n2) // fused bias+ReLU epilogue
	f := n2                        // n2 is dead after the first FFN layer
	b.FF.L2.ApplyInto(f, hid)
	tensor.PutMatrix(hid)

	out := tensor.GetMatrixDirty(rows, d)
	tensor.AddInto(out, h, f)
	tensor.PutMatrix(f)
	tensor.PutMatrix(h)
	return out
}

// InferCLS runs the encoder block in eval mode computing only the [CLS]
// output row of each sequence, returning a pooled B×D matrix the caller
// must release. Only valid as the *last* block of a classifier stack: rows
// other than CLS are never produced, so a subsequent block's attention
// would see garbage. Bit-exact with the CLS rows of InferBatch.
func (b *EncoderBlock) InferCLS(x *tensor.Matrix, offs []int) *tensor.Matrix {
	B := len(offs) - 1
	d := x.Cols
	n1 := tensor.GetMatrixDirty(x.Rows, d)
	b.LN1.ApplyInto(n1, x)
	a := tensor.GetMatrixDirty(B, d)
	b.Attn.ApplyCLSInto(a, n1, offs)
	tensor.PutMatrix(n1)

	h := tensor.GetMatrixDirty(B, d)
	for s := 0; s < B; s++ {
		xr := x.Row(offs[s])
		ar := a.Row(s)
		hr := h.Row(s)
		for j := range hr {
			hr[j] = xr[j] + ar[j]
		}
	}
	n2 := a // a is dead after the residual
	b.LN2.ApplyInto(n2, h)
	hid := tensor.GetMatrixDirty(B, b.FF.L1.W.W.Cols)
	b.FF.L1.ApplyReLUInto(hid, n2) // fused bias+ReLU epilogue
	f := n2
	b.FF.L2.ApplyInto(f, hid)
	tensor.PutMatrix(hid)

	out := tensor.GetMatrixDirty(B, d)
	tensor.AddInto(out, h, f)
	tensor.PutMatrix(f)
	tensor.PutMatrix(h)
	return out
}
