package tensor

// Strided batched attention GEMMs. Multi-head attention stores Q/K/V as
// T×D row-major matrices with head h occupying the contiguous column band
// [h·dh, (h+1)·dh), dh = D/heads. Per-head score and mix products therefore
// never need per-head copies: a head's key/value rows are rows of stride D
// starting at column offset h·dh, which is exactly the strided form the row
// kernels in float.go consume. These two helpers run all heads of a
// sequence as one batched GEMM each — replacing the per-head Dot/Axpy loops
// — and inherit the kernels' bit-identity contract (AVX2 ≡ scalar).

// AttnScoresInto computes raw (pre-softmax) attention scores for every head
// in one pass:
//
//	scores[h·Tq + i][j] = scale · dot(Q_h[i], K_h[j])
//
// where q is Tq×D, k is Tk×D, and scores is (heads·Tq)×Tk — head h's Tq×Tk
// score block occupying rows [h·Tq, (h+1)·Tq). scores may be dirty; every
// element is assigned. D must be divisible by heads.
func AttnScoresInto(scores, q, k *Matrix, heads int, scale float64) {
	if q.Cols != k.Cols || heads <= 0 || q.Cols%heads != 0 {
		panic("tensor: AttnScoresInto head geometry mismatch")
	}
	if scores.Rows != heads*q.Rows || scores.Cols != k.Rows {
		panic("tensor: AttnScoresInto output shape mismatch")
	}
	Tq, Tk := q.Rows, k.Rows
	if Tq == 0 || Tk == 0 {
		return
	}
	dh := q.Cols / heads
	for r := 0; r < heads*Tq; r++ {
		h, i := r/Tq, r%Tq
		srow := scores.Data[r*Tk : (r+1)*Tk]
		if dh == 0 {
			clear(srow)
			continue
		}
		qh := q.Data[i*q.Cols+h*dh : i*q.Cols+(h+1)*dh]
		f64DotRows(srow, qh, k.Data, h*dh, k.Cols, dh, Tk)
		for j := range srow {
			srow[j] *= scale
		}
	}
}

// AttnMixInto computes the post-softmax value mix for every head in one
// pass:
//
//	out_h[i] = Σ_j attn[h·Tq + i][j] · V_h[j]
//
// where attn is (heads·Tq)×Tk (the AttnScoresInto layout after softmax),
// v is Tk×D, and out is Tq×D with head h written to its column band. out
// may be dirty; every element is assigned. Each output element is one
// ascending-j FMA chain (axpy kernel).
func AttnMixInto(out, attn, v *Matrix, heads int) {
	if out.Cols != v.Cols || heads <= 0 || v.Cols%heads != 0 {
		panic("tensor: AttnMixInto head geometry mismatch")
	}
	if attn.Rows != heads*out.Rows || attn.Cols != v.Rows {
		panic("tensor: AttnMixInto shape mismatch")
	}
	Tq, Tk := out.Rows, v.Rows
	dh := v.Cols / heads
	for i := 0; i < Tq; i++ {
		orow := out.Data[i*out.Cols : (i+1)*out.Cols]
		for h := 0; h < heads; h++ {
			dst := orow[h*dh : (h+1)*dh]
			if Tk == 0 {
				clear(dst)
				continue
			}
			arow := attn.Data[(h*Tq+i)*Tk : (h*Tq+i+1)*Tk]
			f64GemmRow(dst, arow, 1, v.Data[h*dh:], out.Cols, nil, Tk, dh, false)
		}
	}
}
