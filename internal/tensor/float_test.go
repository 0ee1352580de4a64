package tensor

import (
	"math"
	"math/rand"
	"os"
	"testing"
	"time"
)

// refMatMulBias is a naive, unfused reference: plain mul-then-add sums (no
// FMA), bias added at the end, ReLU as v<=0→0. Kernel outputs must match it
// to tight tolerance but not bit-exactly (the kernels fuse rounding steps).
func refMatMulBias(a, b *Matrix, bias []float64, relu bool) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := 0.0
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			if bias != nil {
				s += bias[j]
			}
			if relu && s <= 0 {
				s = 0
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func assertClose(t *testing.T, got, want *Matrix, tol float64, what string) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		w := want.Data[i]
		if math.Abs(v-w) > tol*(1+math.Abs(w)) {
			t.Fatalf("%s: element %d: got %v, want %v", what, i, v, w)
		}
	}
}

// floatKernelShapes exercises every column-tile width (16/8/4/scalar tail)
// and k-tail of both float kernels, plus degenerate dims.
var floatKernelShapes = [][3]int{
	{1, 1, 1}, {2, 3, 5}, {3, 4, 16}, {5, 7, 17}, {4, 8, 20},
	{2, 5, 31}, {6, 16, 32}, {3, 33, 37}, {1, 64, 3}, {9, 10, 64},
	{70, 48, 66}, {2, 0, 4}, {0, 3, 4}, {3, 4, 0},
}

func TestMatMulBiasVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range floatKernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k).Randn(rng, 1)
		b := New(k, n).Randn(rng, 1)
		bias := make([]float64, n)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}

		got := New(m, n)
		MatMulInto(got, a, b)
		assertClose(t, got, refMatMulBias(a, b, nil, false), 1e-12, "MatMulInto")

		MatMulBiasInto(got, a, b, bias)
		assertClose(t, got, refMatMulBias(a, b, bias, false), 1e-12, "MatMulBiasInto")

		MatMulBiasReLUInto(got, a, b, bias)
		assertClose(t, got, refMatMulBias(a, b, bias, true), 1e-12, "MatMulBiasReLUInto")

		// BT orientation: out = a·bᵀ with b stored n×k.
		bt := New(n, k)
		for j := 0; j < n; j++ {
			for kk := 0; kk < k; kk++ {
				bt.Set(j, kk, b.At(kk, j))
			}
		}
		MatMulBTInto(got, a, bt)
		assertClose(t, got, refMatMulBias(a, b, nil, false), 1e-12, "MatMulBTInto")
	}
}

// TestFloatKernelScalarSIMDAgree pins the AVX2 float kernels bit-exactly to
// the portable math.FMA fallbacks (the contract in float.go) across shapes
// that exercise every tile width and tail, with and without the fused
// bias/ReLU epilogues.
func TestFloatKernelScalarSIMDAgree(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no SIMD kernels installed on this platform")
	}
	defer SetSIMD(true)
	rng := rand.New(rand.NewSource(13))
	for _, sh := range floatKernelShapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := New(m, k).Randn(rng, 1)
		b := New(k, n).Randn(rng, 1)
		bt := New(n, k).Randn(rng, 1)
		bias := make([]float64, n)
		for j := range bias {
			bias[j] = rng.NormFloat64() * 0.01 // small bias → many near-zero pre-ReLU values
		}

		runs := map[string]func(out *Matrix){
			"MatMulInto":         func(out *Matrix) { MatMulInto(out, a, b) },
			"MatMulBiasInto":     func(out *Matrix) { MatMulBiasInto(out, a, b, bias) },
			"MatMulBiasReLUInto": func(out *Matrix) { MatMulBiasReLUInto(out, a, b, bias) },
			"MatMulBTInto":       func(out *Matrix) { MatMulBTInto(out, a, bt) },
			"MatMulATInto":       func(out *Matrix) { MatMulATInto(out, transposeOf(a), b) },
		}
		for name, run := range runs {
			simd := New(m, n)
			SetSIMD(true)
			run(simd)
			scalar := New(m, n)
			SetSIMD(false)
			run(scalar)
			SetSIMD(true)
			for i := range simd.Data {
				if simd.Data[i] != scalar.Data[i] || math.Signbit(simd.Data[i]) != math.Signbit(scalar.Data[i]) {
					t.Fatalf("%s shape %v: element %d: simd %v != scalar %v (bit-identity contract)",
						name, sh, i, simd.Data[i], scalar.Data[i])
				}
			}
		}
	}
}

// TestNormScaleScalarSIMDAgree pins the layer-norm scale-shift kernel
// bit-exactly to the scalar loop across widths exercising the 4-lane tail,
// including denormal-ish small and large magnitudes and negative zeros.
func TestNormScaleScalarSIMDAgree(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no SIMD kernels installed on this platform")
	}
	defer SetSIMD(true)
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 64} {
		src := make([]float64, n)
		gamma := make([]float64, n)
		beta := make([]float64, n)
		for j := range src {
			src[j] = rng.NormFloat64() * 3
			gamma[j] = rng.NormFloat64()
			beta[j] = rng.NormFloat64() * 0.1
		}
		if n > 1 {
			src[1] = math.Copysign(0, -1)
		}
		mean := rng.NormFloat64()
		inv := rng.Float64() + 0.5

		simd := make([]float64, n)
		SetSIMD(true)
		NormScaleInto(simd, src, mean, inv, gamma, beta)
		scalar := make([]float64, n)
		SetSIMD(false)
		NormScaleInto(scalar, src, mean, inv, gamma, beta)
		SetSIMD(true)

		for j := range simd {
			if simd[j] != scalar[j] || math.Signbit(simd[j]) != math.Signbit(scalar[j]) {
				t.Fatalf("n=%d: element %d: simd %v != scalar %v (bit-identity contract)",
					n, j, simd[j], scalar[j])
			}
		}
	}
}

// BenchmarkMatMulAVX2 measures the float64 AVX2 kernel at the 128³ shape
// shared with BenchmarkMatMul128/BenchmarkMatMulInt8 (CI bench smoke target).
func BenchmarkMatMulAVX2(b *testing.B) {
	if !SIMDAvailable() {
		b.Skip("no SIMD kernels installed on this platform")
	}
	SetSIMD(true)
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128).Randn(rng, 1)
	y := New(128, 128).Randn(rng, 1)
	out := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

// BenchmarkMatMulScalar is the same shape through the portable scalar
// kernels — the denominator of the SIMD speedup ratio.
func BenchmarkMatMulScalar(b *testing.B) {
	SetSIMD(false)
	defer SetSIMD(true)
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128).Randn(rng, 1)
	y := New(128, 128).Randn(rng, 1)
	out := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

// TestSIMDSpeedupGate is the machine-relative performance gate: with
// PRAGFORMER_BENCH_GATE=1 it times the scalar and AVX2 float64 kernels on
// the same 128³ matmul and fails unless SIMD is ≥2x. A ratio of two runs
// on the same host at the same moment, with minimums over repeats, stays
// meaningful on noisy shared runners where absolute ns/op gates would not.
func TestSIMDSpeedupGate(t *testing.T) {
	if os.Getenv("PRAGFORMER_BENCH_GATE") == "" {
		t.Skip("set PRAGFORMER_BENCH_GATE=1 to run the SIMD speedup gate")
	}
	if !SIMDAvailable() {
		t.Skip("no SIMD kernels installed on this platform")
	}
	defer SetSIMD(true)
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128).Randn(rng, 1)
	y := New(128, 128).Randn(rng, 1)
	out := New(128, 128)

	// Minimum of interleaved timed sections: transient host load slows one
	// section, not the best observation of each kernel.
	const reps, iters = 5, 20
	minScalar, minSIMD := math.MaxFloat64, math.MaxFloat64
	for r := 0; r < reps; r++ {
		SetSIMD(false)
		s := timeSection(iters, func() { MatMulInto(out, x, y) })
		SetSIMD(true)
		v := timeSection(iters, func() { MatMulInto(out, x, y) })
		minScalar = math.Min(minScalar, s)
		minSIMD = math.Min(minSIMD, v)
	}
	ratio := minScalar / minSIMD
	t.Logf("scalar %.0f ns/op, simd %.0f ns/op, speedup %.2fx", minScalar, minSIMD, ratio)
	if ratio < 2 {
		t.Errorf("SIMD float64 matmul only %.2fx scalar, want >= 2x", ratio)
	}
}

// timeSection returns ns per call of fn, minimized over nothing — callers
// repeat and take minimums.
func timeSection(iters int, fn func()) float64 {
	fn() // warm caches and kernel dispatch before timing
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

func transposeOf(m *Matrix) *Matrix {
	out := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// TestMatMulBiasSeedEqualsChain documents the fusion semantics: the bias
// seeds the FMA accumulator (init + Σ fma) rather than being added after
// the sum, so fused output equals the scalar chain started at bias[j].
func TestMatMulBiasSeedEqualsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m, k, n := 3, 9, 6
	a := New(m, k).Randn(rng, 1)
	b := New(k, n).Randn(rng, 1)
	bias := make([]float64, n)
	for j := range bias {
		bias[j] = rng.NormFloat64()
	}
	got := New(m, n)
	MatMulBiasInto(got, a, b, bias)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := bias[j]
			for kk := 0; kk < k; kk++ {
				want = math.FMA(a.At(i, kk), b.At(kk, j), want)
			}
			if got.At(i, j) != want {
				t.Fatalf("(%d,%d): got %v, want chained %v", i, j, got.At(i, j), want)
			}
		}
	}
}

// TestReLUEpilogueEdgeCases pins the VMAXPD store semantics: exact zeros
// stay +0 and negative zeros normalize to +0.
func TestReLUEpilogueEdgeCases(t *testing.T) {
	// 1×1 · 1×n with a = 0 and bias = {-0, +0, -1, 2}: products are all +0,
	// so the accumulator is exactly the bias; ReLU must emit {+0, +0, +0, 2}.
	a := FromSlice(1, 1, []float64{0})
	b := FromSlice(1, 4, []float64{1, 1, 1, 1})
	bias := []float64{math.Copysign(0, -1), 0, -1, 2}
	out := New(1, 4)
	MatMulBiasReLUInto(out, a, b, bias)
	want := []float64{0, 0, 0, 2}
	for j, w := range want {
		v := out.At(0, j)
		if v != w || math.Signbit(v) {
			t.Fatalf("relu[%d] = %v (signbit %v), want +%v", j, v, math.Signbit(v), w)
		}
	}
}

// TestMatMulKZeroBiasReLU pins the degenerate inner dimension: out must be
// exactly relu(bias) rows.
func TestMatMulKZeroBiasReLU(t *testing.T) {
	a := New(2, 0)
	b := New(0, 3)
	bias := []float64{-1, 0.5, 3}
	out := New(2, 3)
	MatMulBiasReLUInto(out, a, b, bias)
	want := []float64{0, 0.5, 3, 0, 0.5, 3}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("out = %v, want %v", out.Data, want)
		}
	}
}
