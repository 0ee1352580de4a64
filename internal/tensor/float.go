package tensor

import "math"

// Float64 GEMM kernel layer. The three matmul orientations (and the fused
// bias/ReLU epilogues) route every output row through one of two row
// kernels, each with an AVX2 FMA asm backend (float_amd64.s) and a portable
// scalar fallback defined here:
//
//   - the axpy/outer-product kernel (f64GemmRow*): out[j] = epilogue(
//     init_j + Σ_k a[k]·b[k][j]), used by MatMul/MatMulAT where the output
//     row is register-tiled and b streams row-wise, and
//   - the dot kernel (f64DotBT4*/dotLanes), used by MatMulBTInto and the
//     attention score GEMM, where both operands stream contiguously.
//
// Bit-identity contract: the scalar fallbacks compute the exact FMA chains
// the asm computes, so results are identical on every platform and build
// (amd64 AVX2, purego, arm64) — the float analogue of the int8 kernel's
// exactness guarantee, asserted by TestFloatKernelScalarSIMDAgree:
//
//   - axpy kernel: each output element is one fused-multiply-add chain in
//     ascending k (math.FMA ≡ VFMADD231PD lane-wise; vectorizing over j
//     reassociates nothing, since lanes are distinct output elements);
//   - dot kernel: four lane partials l_c = Σ_{k≡c (mod 4)} fma-accumulated,
//     reduced as (l0+l2)+(l1+l3) — mirroring VEXTRACTF128+VADDPD+VHADDPD —
//     then a sequential fma tail for k % 4 leftovers;
//   - epilogues: bias seeds the accumulator chain (init_j = bias[j]), and
//     ReLU stores max(acc, +0) exactly as VMAXPD (so -0 → +0, NaN → +0).
//
// The contract assumes finite inputs: ±Inf/NaN weights can diverge between
// a fused and an unfused multiply-add, which no trained model produces.

// f64GemmRowKernel, when non-nil, is the asm axpy row kernel. dst gets
// epilogue(init + Σ_{k<K} a[k·strideA]·b[k·strideB + j]) for j in [0, n):
// init is bias[j] (or 0 when bias is nil), and flags bit 0 applies ReLU at
// store. Strides are in elements.
var f64GemmRowKernel func(dst, a *float64, strideA int, b *float64, strideB int, bias *float64, k, n, flags int)

// f64DotBT4Kernel, when non-nil, is the asm dot kernel: out[c] = the
// lane-ordered dot product of a[0:k] with b[c·strideB : c·strideB+k] for
// c in 0..3.
var f64DotBT4Kernel func(a, b *float64, strideB, k int, out *float64)

const f64ReLUFlag = 1

// f64GemmRowGo is the portable axpy row kernel, bit-identical to
// f64GemmRowAVX2 (see the contract above). a is indexed a[k*strideA] and b
// rows at b[k*strideB:]; dst[:n] is fully assigned.
func f64GemmRowGo(dst, a []float64, strideA int, b []float64, strideB int, bias []float64, K, n int, relu bool) {
	dst = dst[:n]
	if bias != nil {
		copy(dst, bias[:n])
	} else {
		clear(dst)
	}
	for k := 0; k < K; k++ {
		av := a[k*strideA]
		brow := b[k*strideB : k*strideB+n]
		for j, bv := range brow {
			dst[j] = math.FMA(av, bv, dst[j])
		}
	}
	if relu {
		for j, v := range dst {
			if !(v > 0) { // match VMAXPD(acc, +0): -0 and NaN become +0
				dst[j] = 0
			}
		}
	}
}

// dotLanes is the portable dot kernel for one output element, bit-identical
// per lane tree to f64DotBT4AVX2.
func dotLanes(a, b []float64) float64 {
	n := len(a)
	b = b[:n]
	k4 := n &^ 3
	var l0, l1, l2, l3 float64
	for k := 0; k < k4; k += 4 {
		l0 = math.FMA(a[k], b[k], l0)
		l1 = math.FMA(a[k+1], b[k+1], l1)
		l2 = math.FMA(a[k+2], b[k+2], l2)
		l3 = math.FMA(a[k+3], b[k+3], l3)
	}
	s := (l0 + l2) + (l1 + l3)
	for k := k4; k < n; k++ {
		s = math.FMA(a[k], b[k], s)
	}
	return s
}

// f64GemmRow dispatches one axpy-kernel output row. dst must have at least
// n elements; a provides K elements at stride strideA; b rows start at
// multiples of strideB.
func f64GemmRow(dst, a []float64, strideA int, b []float64, strideB int, bias []float64, K, n int, relu bool) {
	if n == 0 {
		return
	}
	if K == 0 || len(a) == 0 {
		// Degenerate inner dimension: the epilogue alone.
		f64GemmRowGo(dst, nil, 0, nil, 0, bias, 0, n, relu)
		return
	}
	if kern := f64GemmRowKernel; kern != nil {
		flags := 0
		if relu {
			flags = f64ReLUFlag
		}
		var bp *float64
		if bias != nil {
			bp = &bias[0]
		}
		kern(&dst[0], &a[0], strideA, &b[0], strideB, bp, K, n, flags)
		return
	}
	f64GemmRowGo(dst, a, strideA, b, strideB, bias, K, n, relu)
}

// f64DotRows computes orow[j] = dot(arow, b[bOff+j·strideB : +K]) for j in
// [0, n), where b rows are strideB elements apart, using the 4-row asm
// kernel when installed and the identical lane-ordered fallback otherwise.
func f64DotRows(orow, arow, b []float64, bOff, strideB, K, n int) {
	j := 0
	if kern := f64DotBT4Kernel; kern != nil && K > 0 {
		for ; j+4 <= n; j += 4 {
			kern(&arow[0], &b[bOff+j*strideB], strideB, K, &orow[j])
		}
	}
	for ; j < n; j++ {
		off := bOff + j*strideB
		orow[j] = dotLanes(arow[:K], b[off:off+K])
	}
}

// matMulEpilogue is the shared implementation of MatMulInto and the fused
// bias/ReLU variants: out = act(a·b + bias).
func matMulEpilogue(out, a, b *Matrix, bias []float64, relu bool) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic("tensor: MatMulInto shape mismatch")
	}
	if bias != nil && len(bias) < b.Cols {
		panic("tensor: MatMulInto bias shorter than output width")
	}
	K, N := a.Cols, b.Cols
	for i := 0; i < a.Rows; i++ {
		f64GemmRow(out.Data[i*N:(i+1)*N], a.Data[i*K:], 1, b.Data, N, bias, K, N, relu)
	}
}

// MatMulBiasInto computes out = a·b + bias (bias added per output column)
// in one kernel pass: the bias seeds each output accumulator, saving the
// separate row-wise Axpy sweep Linear layers used to pay.
func MatMulBiasInto(out, a, b *Matrix, bias []float64) {
	matMulEpilogue(out, a, b, bias, false)
}

// MatMulBiasReLUInto computes out = max(0, a·b + bias) in one kernel pass —
// the fused FFN/classifier-head epilogue.
func MatMulBiasReLUInto(out, a, b *Matrix, bias []float64) {
	matMulEpilogue(out, a, b, bias, true)
}

// MatMulBTInto computes out = a·bᵀ into a preallocated out. a is m×k, b is
// n×k, out m×n; both operands stream contiguously along k (the dot-kernel
// orientation).
func MatMulBTInto(out, a, b *Matrix) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic("tensor: MatMulBTInto shape mismatch")
	}
	K, N := a.Cols, b.Rows
	for i := 0; i < a.Rows; i++ {
		orow := out.Data[i*N : (i+1)*N]
		if K == 0 {
			clear(orow)
			continue
		}
		f64DotRows(orow, a.Data[i*K:i*K+K], b.Data, 0, K, K, N)
	}
}

// f64NormScaleKernel, when non-nil, is the asm layer-norm scale-shift
// kernel over a 4-aligned prefix: dst[j] = ((src[j]-mean)·inv)·gamma[j] +
// beta[j]. Every element is an independent sub/mul/mul/add chain — no
// cross-element reduction — so vector lanes reassociate nothing and the
// asm is bit-identical to the scalar loop.
var f64NormScaleKernel func(dst, src *float64, mean, inv float64, gamma, beta *float64, n4 int)

// NormScaleInto writes dst[j] = ((src[j]-mean)*inv)*gamma[j] + beta[j] for
// j < len(dst) — the third (scale-shift) pass of layer normalization, the
// only one of its three passes whose rounding order is per-element and can
// therefore take a SIMD kernel without changing results. src, gamma, and
// beta must have at least len(dst) elements; dst may alias src.
func NormScaleInto(dst, src []float64, mean, inv float64, gamma, beta []float64) {
	n := len(dst)
	src, gamma, beta = src[:n], gamma[:n], beta[:n]
	j := 0
	if kern := f64NormScaleKernel; kern != nil {
		if n4 := n &^ 3; n4 > 0 {
			kern(&dst[0], &src[0], mean, inv, &gamma[0], &beta[0], n4)
			j = n4
		}
	}
	for ; j < n; j++ {
		xh := (src[j] - mean) * inv
		dst[j] = xh*gamma[j] + beta[j]
	}
}

// AdamWStep is the scalar half of one AdamW step, shared by every
// parameter the step updates.
type AdamWStep struct {
	// Inv and Scale multiply each gradient, in that order and rounded after
	// each: the 1/batch average, then the clip factor (1 when the norm is
	// under the bound, and x·1 == x exactly).
	Inv, Scale   float64
	Beta1, Beta2 float64
	// BC1 and BC2 are the bias corrections 1−Beta1ᵗ and 1−Beta2ᵗ.
	BC1, BC2    float64
	Eps         float64
	WeightDecay float64
	LR          float64
}

// f64AdamWKernel, when non-nil, is the asm AdamW update over a 4-aligned
// prefix of n4 elements (see AdamWUpdate). Every element is an independent
// chain of correctly rounded operations — VMULPD, VADDPD, VSUBPD, VDIVPD,
// VSQRTPD, no FMA — so lanes reassociate nothing and the asm is
// bit-identical to the scalar loop.
var f64AdamWKernel func(w, grad, m, v *float64, n4 int, decay bool, s AdamWStep)

// AdamWUpdate applies one AdamW step to w from its accumulated gradient g,
// updating the moments m and v, and leaves g zeroed. Each element runs
//
//	g ← (g·Inv)·Scale
//	m ← Beta1·m + (1−Beta1)·g
//	v ← Beta2·v + ((1−Beta2)·g)·g
//	u ← (m/BC1) / (√(v/BC2) + Eps)  (+ WeightDecay·w when decay)
//	w ← w − LR·u
//
// rounding after every operation: the explicit conversions below keep the
// compiler from contracting a multiply and an add into an FMA, which the
// asm backend never does. g, m and v must have at least len(w) elements.
func AdamWUpdate(w, g, m, v []float64, s AdamWStep, decay bool) {
	n := len(w)
	g, m, v = g[:n], m[:n], v[:n]
	i := 0
	if kern := f64AdamWKernel; kern != nil {
		if n4 := n &^ 3; n4 > 0 {
			kern(&w[0], &g[0], &m[0], &v[0], n4, decay, s)
			i = n4
		}
	}
	omb1, omb2 := 1-s.Beta1, 1-s.Beta2
	for ; i < n; i++ {
		gi := (g[i] * s.Inv) * s.Scale
		mi := float64(s.Beta1*m[i]) + float64(omb1*gi)
		vi := float64(s.Beta2*v[i]) + float64(omb2*gi*gi)
		m[i], v[i] = mi, vi
		upd := (mi / s.BC1) / (math.Sqrt(vi/s.BC2) + s.Eps)
		if decay {
			upd += float64(s.WeightDecay * w[i])
		}
		w[i] -= float64(s.LR * upd)
		g[i] = 0
	}
}
