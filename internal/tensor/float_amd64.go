//go:build amd64 && !purego

package tensor

// AVX2 FMA backend for the float64 GEMM kernels (float_amd64.s). The asm
// mirrors the scalar fallbacks in float.go instruction-for-instruction at
// the arithmetic level — VFMADD231PD lanes are distinct output elements (or
// the documented 4-lane dot partials), so the two paths are bit-identical
// on finite inputs; see the contract in float.go and
// TestFloatKernelScalarSIMDAgree. Installation happens in cpu_amd64.go
// alongside the int8 kernel, gated on the shared AVX2 probe and the
// PRAGFORMER_NOSIMD escape hatch.

// f64GemmRowAVX2 computes, for j in [0, n):
//
//	dst[j] = epilogue(init_j + Σ_{k'<k} a[k'·strideA] · b[k'·strideB + j])
//
// with init_j = bias[j] (bias may be nil → 0) and epilogue = max(·, +0)
// when flags&f64ReLUFlag is set. Strides are in elements. The output row is
// register-tiled 16/8/4 wide with a scalar tail; per-element accumulation
// order is ascending k regardless of tile width.
//
//go:noescape
func f64GemmRowAVX2(dst, a *float64, strideA int, b *float64, strideB int, bias *float64, k, n, flags int)

// f64DotBT4AVX2 computes out[c] = lane-ordered dot(a[0:k], b[c·strideB:+k])
// for c in 0..3: four FMA lane partials over the 4-aligned prefix, reduced
// (l0+l2)+(l1+l3), then a sequential FMA tail.
//
//go:noescape
func f64DotBT4AVX2(a, b *float64, strideB, k int, out *float64)

// f64NormScaleAVX2 stores dst[j] = ((src[j]-mean)·inv)·gamma[j] + beta[j]
// for j < n4 (a nonzero multiple of 4) — sub, mul, mul, add per lane in the
// exact order of the scalar scale-shift loop, so results are bit-identical.
//
//go:noescape
func f64NormScaleAVX2(dst, src *float64, mean, inv float64, gamma, beta *float64, n4 int)

// f64AdamWAVX2 applies one AdamW step to the first n4 elements (a nonzero
// multiple of 4) of w, grad, m and v — the scalar AdamWUpdate loop's exact
// operation sequence per lane, with no FMA, so results are bit-identical.
//
//go:noescape
func f64AdamWAVX2(w, grad, m, v *float64, n4 int, decay bool, s AdamWStep)
