package quant

import (
	"math"

	"pragformer/internal/tensor"
)

// Batch-first quantized forwards, mirroring nn/infer.go function by
// function so the parity tests can diff the two stacks layer by layer: the
// same ragged layout (B sequences stacked row-wise, offs[i] marking
// sequence starts), the same pooled intermediates, the same CLS-pruned last
// block. The only arithmetic difference is inside Linear.ApplyInto — every
// weight matmul runs int8 — so any divergence beyond quantization error is
// a bug the layer-by-layer tests localize.

// EmbedBatchInto mirrors nn.Embedding.ForwardBatchInto. It is exported so
// parity tests can drive the stack layer by layer.
func (m *Model) EmbedBatchInto(dst *tensor.Matrix, seqs [][]int) {
	r := 0
	for _, ids := range seqs {
		for t, idx := range ids {
			row := dst.Row(r)
			copy(row, m.Tok.Row(idx))
			tensor.Axpy(1, m.Pos.Row(t), row)
			r++
		}
	}
}

// maxSeqLen returns the longest sequence length in a ragged batch layout
// (at least 1, so scratch slicing always has a non-empty buffer).
func maxSeqLen(offs []int) int {
	maxT := 1
	for s := 0; s+1 < len(offs); s++ {
		if T := offs[s+1] - offs[s]; T > maxT {
			maxT = T
		}
	}
	return maxT
}

// ApplyBatchInto mirrors nn.MultiHeadAttention.ApplyBatchInto: quantized
// Q/K/V/O projections (the input is quantized once and shared across
// Q/K/V), float64 score/softmax/value mixing within each sequence.
func (a *Attention) ApplyBatchInto(dst, x *tensor.Matrix, offs []int) {
	dh := a.D / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	xq := tensor.GetInt8Matrix(x.Rows, x.Cols)
	tensor.QuantizeRowsInto(xq, x)
	q := tensor.GetMatrixDirty(x.Rows, a.D)
	k := tensor.GetMatrixDirty(x.Rows, a.D)
	v := tensor.GetMatrixDirty(x.Rows, a.D)
	a.WQ.ApplyQuantizedInto(q, xq)
	a.WK.ApplyQuantizedInto(k, xq)
	a.WV.ApplyQuantizedInto(v, xq)
	tensor.PutInt8Matrix(xq)
	// Dirty is safe: every row belongs to some non-empty sequence and the
	// strided mix fully assigns those rows.
	concat := tensor.GetMatrixDirty(x.Rows, a.D)

	// As in the float mirror: one score scratch sized for all heads of the
	// longest sequence serves every sequence as an (H·T)×T view.
	maxT := maxSeqLen(offs)
	scoresBuf := tensor.GetVecDirty(a.Heads * maxT * maxT)
	for s := 0; s+1 < len(offs); s++ {
		lo, hi := offs[s], offs[s+1]
		T := hi - lo
		if T == 0 {
			continue
		}
		// All heads of the sequence in one strided batched GEMM each.
		qs := tensor.Matrix{Rows: T, Cols: a.D, Data: q.Data[lo*a.D : hi*a.D]}
		ks := tensor.Matrix{Rows: T, Cols: a.D, Data: k.Data[lo*a.D : hi*a.D]}
		vs := tensor.Matrix{Rows: T, Cols: a.D, Data: v.Data[lo*a.D : hi*a.D]}
		cs := tensor.Matrix{Rows: T, Cols: a.D, Data: concat.Data[lo*a.D : hi*a.D]}
		scores := tensor.Matrix{Rows: a.Heads * T, Cols: T, Data: scoresBuf[:a.Heads*T*T]}
		tensor.AttnScoresInto(&scores, &qs, &ks, a.Heads, scale)
		tensor.RowSoftmax(&scores)
		tensor.AttnMixInto(&cs, &scores, &vs, a.Heads)
	}
	tensor.PutVec(scoresBuf)
	a.WO.ApplyInto(dst, concat)
	tensor.PutMatrix(concat)
	tensor.PutMatrix(v)
	tensor.PutMatrix(k)
	tensor.PutMatrix(q)
}

// ApplyCLSInto mirrors nn.MultiHeadAttention.ApplyCLSInto: only the first
// attention output row of each sequence, with full-width K/V.
func (a *Attention) ApplyCLSInto(dst, x *tensor.Matrix, offs []int) {
	B := len(offs) - 1
	dh := a.D / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	xq := tensor.GetInt8Matrix(x.Rows, x.Cols)
	tensor.QuantizeRowsInto(xq, x)
	k := tensor.GetMatrixDirty(x.Rows, a.D)
	v := tensor.GetMatrixDirty(x.Rows, a.D)
	a.WK.ApplyQuantizedInto(k, xq)
	a.WV.ApplyQuantizedInto(v, xq)
	tensor.PutInt8Matrix(xq)

	xcls := tensor.GetMatrixDirty(B, a.D)
	for s := 0; s < B; s++ {
		copy(xcls.Row(s), x.Row(offs[s]))
	}
	q := tensor.GetMatrixDirty(B, a.D)
	a.WQ.ApplyInto(q, xcls)
	tensor.PutMatrix(xcls)

	concat := tensor.GetMatrix(B, a.D) // zeroed: empty sequences keep zero rows
	scoresBuf := tensor.GetVecDirty(a.Heads * maxSeqLen(offs))
	for s := 0; s < B; s++ {
		lo, hi := offs[s], offs[s+1]
		T := hi - lo
		if T == 0 {
			continue
		}
		// One query row per head: scores is H×T (Tq = 1), mixed into the
		// single concat row.
		qs := tensor.Matrix{Rows: 1, Cols: a.D, Data: q.Data[s*a.D : (s+1)*a.D]}
		ks := tensor.Matrix{Rows: T, Cols: a.D, Data: k.Data[lo*a.D : hi*a.D]}
		vs := tensor.Matrix{Rows: T, Cols: a.D, Data: v.Data[lo*a.D : hi*a.D]}
		cs := tensor.Matrix{Rows: 1, Cols: a.D, Data: concat.Data[s*a.D : (s+1)*a.D]}
		scores := tensor.Matrix{Rows: a.Heads, Cols: T, Data: scoresBuf[:a.Heads*T]}
		tensor.AttnScoresInto(&scores, &qs, &ks, a.Heads, scale)
		tensor.RowSoftmax(&scores)
		tensor.AttnMixInto(&cs, &scores, &vs, a.Heads)
	}
	tensor.PutVec(scoresBuf)
	a.WO.ApplyInto(dst, concat)
	tensor.PutMatrix(concat)
	tensor.PutMatrix(v)
	tensor.PutMatrix(k)
	tensor.PutMatrix(q)
}

// InferBatch mirrors nn.EncoderBlock.InferBatch over the ragged batch,
// returning a pooled matrix the caller must release with tensor.PutMatrix.
func (b *Block) InferBatch(x *tensor.Matrix, offs []int) *tensor.Matrix {
	rows, d := x.Rows, x.Cols
	n1 := tensor.GetMatrixDirty(rows, d)
	b.LN1.ApplyInto(n1, x)
	a := tensor.GetMatrixDirty(rows, d)
	b.Attn.ApplyBatchInto(a, n1, offs)
	h := n1 // n1 is dead after attention; reuse it for the residual
	tensor.AddInto(h, x, a)

	n2 := a // a is dead after the residual
	b.LN2.ApplyInto(n2, h)
	hid := tensor.GetMatrixDirty(rows, b.FF1.Wq.Rows)
	b.FF1.ApplyReLUInto(hid, n2) // fused dequant+bias+ReLU epilogue
	f := n2                      // n2 is dead after the first FFN layer
	b.FF2.ApplyInto(f, hid)
	tensor.PutMatrix(hid)

	out := tensor.GetMatrixDirty(rows, d)
	tensor.AddInto(out, h, f)
	tensor.PutMatrix(f)
	tensor.PutMatrix(h)
	return out
}

// InferCLS mirrors nn.EncoderBlock.InferCLS: only the [CLS] output row of
// each sequence, valid solely as the last block of the stack. Returns a
// pooled B×D matrix the caller must release.
func (b *Block) InferCLS(x *tensor.Matrix, offs []int) *tensor.Matrix {
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
	hid := tensor.GetMatrixDirty(B, b.FF1.Wq.Rows)
	b.FF1.ApplyReLUInto(hid, n2) // fused dequant+bias+ReLU epilogue
	f := n2
	b.FF2.ApplyInto(f, hid)
	tensor.PutMatrix(hid)

	out := tensor.GetMatrixDirty(B, d)
	tensor.AddInto(out, h, f)
	tensor.PutMatrix(f)
	tensor.PutMatrix(h)
	return out
}

// PredictBatchProbs mirrors core.PragFormer.PredictBatchProbs: both class
// probabilities for every sequence of the ragged batch.
func (m *Model) PredictBatchProbs(idsBatch [][]int) [][2]float64 {
	B := len(idsBatch)
	out := make([][2]float64, B)
	if B == 0 {
		return out
	}
	seqs := make([][]int, B)
	offs := make([]int, B+1)
	for i, ids := range idsBatch {
		if len(ids) == 0 {
			panic("quant: PredictBatch on empty id sequence")
		}
		if len(ids) > m.Cfg.MaxLen {
			ids = ids[:m.Cfg.MaxLen]
		}
		seqs[i] = ids
		offs[i+1] = offs[i] + len(ids)
	}

	x := tensor.GetMatrixDirty(offs[B], m.Cfg.D)
	m.EmbedBatchInto(x, seqs)
	for l := 0; l < len(m.Blocks)-1; l++ {
		next := m.Blocks[l].InferBatch(x, offs)
		tensor.PutMatrix(x)
		x = next
	}
	cls := m.Blocks[len(m.Blocks)-1].InferCLS(x, offs)
	tensor.PutMatrix(x)

	hidden := tensor.GetMatrixDirty(B, m.Cfg.D)
	m.FinalLN.ApplyInto(hidden, cls)
	tensor.PutMatrix(cls)
	h := tensor.GetMatrixDirty(B, m.Cfg.FCHidden)
	m.FC1.ApplyReLUInto(h, hidden) // fused dequant+bias+ReLU epilogue
	tensor.PutMatrix(hidden)
	logits := tensor.GetMatrixDirty(B, 2)
	m.FC2.ApplyInto(logits, h)
	tensor.PutMatrix(h)
	for i := 0; i < B; i++ {
		tensor.SoftmaxVecInto(out[i][:], logits.Row(i))
	}
	tensor.PutMatrix(logits)
	return out
}

// PredictBatch returns the positive-class probability for every sequence.
func (m *Model) PredictBatch(idsBatch [][]int) []float64 {
	probs := m.PredictBatchProbs(idsBatch)
	out := make([]float64, len(probs))
	for i, p := range probs {
		out[i] = p[1]
	}
	return out
}

// PredictLabelBatch applies the paper's 0.5 threshold to a whole batch.
func (m *Model) PredictLabelBatch(idsBatch [][]int) []bool {
	probs := m.PredictBatchProbs(idsBatch)
	out := make([]bool, len(probs))
	for i, p := range probs {
		out[i] = p[1] > 0.5
	}
	return out
}

// Predict is the single-sequence wrapper (core.Backend).
func (m *Model) Predict(ids []int) float64 {
	return m.PredictBatch([][]int{ids})[0]
}

// PredictLabel applies the 0.5 threshold to one sequence (core.Backend).
func (m *Model) PredictLabel(ids []int) bool { return m.Predict(ids) > 0.5 }
