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
// the same inputs and fails unless SIMD is ≥2x on a 128³ matmul and ≥1.5x
// on an AdamW update of the demo classifier's 299,234 weights (bound by
// the divider, which four lanes speed up less than the multiply-adds). A
// ratio of two runs on the same host at the same moment, with minimums
// over repeats, stays meaningful on noisy shared runners where absolute
// ns/op gates would not.
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
	const n = 299234
	w, g, m, v := make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	grad := make([]float64, n)
	for i := range w {
		w[i] = rng.NormFloat64() * 0.02
		grad[i] = rng.NormFloat64() * 1e-3
	}
	s := AdamWStep{Inv: 1.0 / 16, Scale: 1, Beta1: 0.9, Beta2: 0.999, BC1: 0.1, BC2: 0.001, Eps: 1e-8, WeightDecay: 0.01, LR: 1e-3}
	for _, k := range []struct {
		name string
		want float64
		run  func()
	}{
		{"float64 matmul", 2, func() { MatMulInto(out, x, y) }},
		{"AdamW update", 1.5, func() {
			copy(g, grad) // the update clears g
			AdamWUpdate(w, g, m, v, s, true)
		}},
	} {
		// Minimum of interleaved timed sections: transient host load slows
		// one section, not the best observation of each kernel.
		const reps, iters = 5, 20
		minScalar, minSIMD := math.MaxFloat64, math.MaxFloat64
		for r := 0; r < reps; r++ {
			SetSIMD(false)
			sc := timeSection(iters, k.run)
			SetSIMD(true)
			vc := timeSection(iters, k.run)
			minScalar = math.Min(minScalar, sc)
			minSIMD = math.Min(minSIMD, vc)
		}
		ratio := minScalar / minSIMD
		t.Logf("%s: scalar %.0f ns/op, simd %.0f ns/op, speedup %.2fx", k.name, minScalar, minSIMD, ratio)
		if ratio < k.want {
			t.Errorf("SIMD %s only %.2fx scalar, want >= %gx", k.name, ratio, k.want)
		}
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

// refAdamW is the AdamW step as the trainer ran it before the update became
// one kernel: the gradient averaged and clipped in place, then the moments
// and weight, then the gradient cleared. The conversions keep every product
// rounded on its own (no FMA), as the kernel's contract does.
func refAdamW(w, g, m, v []float64, s AdamWStep, decay bool) {
	for i := range g {
		g[i] *= s.Inv
	}
	for i := range g {
		g[i] *= s.Scale
	}
	for i := range w {
		m[i] = float64(s.Beta1*m[i]) + float64((1-s.Beta1)*g[i])
		v[i] = float64(s.Beta2*v[i]) + float64((1-s.Beta2)*g[i]*g[i])
		mhat := m[i] / s.BC1
		vhat := v[i] / s.BC2
		upd := mhat / (math.Sqrt(vhat) + s.Eps)
		if decay {
			upd += float64(s.WeightDecay * w[i])
		}
		w[i] -= float64(s.LR * upd)
	}
	for i := range g {
		g[i] = 0
	}
}

// adamWGrad fills g with step-scale gradients salted with the values whose
// rounding is easiest to get wrong: signed zeros, subnormals and magnitudes
// whose square overflows.
func adamWGrad(rng *rand.Rand, g []float64) {
	special := []float64{0, math.Copysign(0, -1), 5e-324, -2.5e-310, 1e300, -1e300}
	for i := range g {
		if rng.Intn(8) == 0 {
			g[i] = special[rng.Intn(len(special))]
		} else {
			g[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-6))
		}
	}
}

// TestAdamWKernelScalarSIMDAgree pins the fused AdamW update bit-exactly,
// over three steps, to the multi-pass reference and the asm backend to the
// scalar loop: every length through the 4-lane tail and the demo
// classifier's 299,234 parameters, decay on and off, clip scale 1 and not.
func TestAdamWKernelScalarSIMDAgree(t *testing.T) {
	defer SetSIMD(SIMDAvailable())
	backends := []bool{false}
	if SIMDAvailable() {
		backends = append(backends, true)
	}
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 299234} {
		for _, decay := range []bool{true, false} {
			for _, scale := range []float64{1, 0.37} {
				rng := rand.New(rand.NewSource(int64(n)))
				w0 := make([]float64, n)
				for i := range w0 {
					w0[i] = rng.NormFloat64() * 0.02
				}
				if n > 2 {
					w0[1], w0[2] = 0, math.Copysign(0, -1)
				}
				// state[0] is the reference; state[1+b] runs on backends[b].
				state := make([][4][]float64, 1+len(backends))
				for i := range state {
					state[i] = [4][]float64{append([]float64(nil), w0...), make([]float64, n), make([]float64, n), make([]float64, n)}
				}
				for step := 1; step <= 3; step++ {
					s := AdamWStep{
						Inv: 1 / 3.0, Scale: scale, Beta1: 0.9, Beta2: 0.999,
						BC1: 1 - math.Pow(0.9, float64(step)), BC2: 1 - math.Pow(0.999, float64(step)),
						Eps: 1e-8, WeightDecay: 0.01, LR: 2e-3 * float64(step) / 3,
					}
					ref := state[0]
					adamWGrad(rng, ref[1])
					for _, st := range state[1:] {
						copy(st[1], ref[1])
					}
					refAdamW(ref[0], ref[1], ref[2], ref[3], s, decay)
					for b, simd := range backends {
						st := state[1+b]
						SetSIMD(simd)
						AdamWUpdate(st[0], st[1], st[2], st[3], s, decay)
						for k, name := range []string{"w", "g", "m", "v"} {
							for i, want := range ref[k] {
								if math.Float64bits(st[k][i]) != math.Float64bits(want) {
									t.Fatalf("n=%d decay=%v scale=%v step %d simd=%v: %s[%d] = %v, reference %v",
										n, decay, scale, step, simd, name, i, st[k][i], want)
								}
							}
						}
					}
				}
			}
		}
	}
}
