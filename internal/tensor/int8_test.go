package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// refInt8MatMul is the obvious-by-inspection reference the kernel is
// checked against: same int32 accumulation and float32 dequant, no
// blocking or parallelism.
func refInt8MatMul(a, b *Int8Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var acc int32
			for k := 0; k < a.Cols; k++ {
				acc += int32(a.At8(i, k)) * int32(b.At8(j, k))
			}
			out.Set(i, j, float64(float32(acc)*a.Scales[i]*b.Scales[j]))
		}
	}
	return out
}

// At8 returns element (i, j) of an Int8Matrix (test helper).
func (m *Int8Matrix) At8(i, j int) int8 { return m.Data[i*m.Cols+j] }

func randInt8(rng *rand.Rand, rows, cols int) *Int8Matrix {
	m := NewInt8(rows, cols)
	for i := range m.Data {
		m.Data[i] = int8(rng.Intn(255) - 127)
	}
	for i := range m.Scales {
		m.Scales[i] = float32(rng.Float64() + 0.01)
	}
	return m
}

// TestMatMulInt8BTMatchesReference exercises shapes around the blocking
// factor and one larger one.
func TestMatMulInt8BTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 2}, {4, 8, 4}, {7, 9, 6}, {16, 32, 33}, {70, 64, 70}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randInt8(rng, m, k)
		b := randInt8(rng, n, k)
		out := New(m, n)
		MatMulInt8BTInto(out, a, b)
		want := refInt8MatMul(a, b)
		for i := range out.Data {
			if out.Data[i] != want.Data[i] {
				t.Fatalf("shape %v: element %d: got %v want %v", sh, i, out.Data[i], want.Data[i])
			}
		}
	}
}

// TestQuantizeRowsInto checks the absmax scheme: the row maximum maps to
// ±127, reconstruction error is within half a quantization step, and
// all-zero rows round-trip exactly with unit scale.
func TestQuantizeRowsInto(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := New(6, 40)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 3
	}
	// Row 4 all zero; row 5 a single spike.
	clear(x.Row(4))
	clear(x.Row(5))
	x.Row(5)[7] = -2.5

	q := NewInt8(6, 40)
	QuantizeRowsInto(q, x)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		amax := 0.0
		for _, v := range row {
			amax = math.Max(amax, math.Abs(v))
		}
		if amax == 0 {
			if q.Scales[i] != 1 {
				t.Errorf("row %d: zero row scale %v, want 1", i, q.Scales[i])
			}
			for j, v := range q.Row(i) {
				if v != 0 {
					t.Errorf("row %d: zero row has q[%d]=%d", i, j, v)
				}
			}
			continue
		}
		step := amax / 127
		sawMax := false
		for j, v := range row {
			got := float64(q.At8(i, j)) * float64(q.Scales[i])
			if math.Abs(got-v) > step/2+1e-9 {
				t.Errorf("row %d col %d: dequant %v vs %v exceeds step/2 %v", i, j, got, v, step/2)
			}
			if q.At8(i, j) == 127 || q.At8(i, j) == -127 {
				sawMax = true
			}
		}
		if !sawMax {
			t.Errorf("row %d: absmax did not map to ±127", i)
		}
	}
}

// TestInt8KernelScalarSIMDAgree pins the platform SIMD kernel bit-exactly
// to the portable scalar path (int32 accumulation is associative, so the
// two must agree to the last bit) across shapes that exercise both tails.
func TestInt8KernelScalarSIMDAgree(t *testing.T) {
	if int8RowKernel == nil {
		t.Skip("no SIMD kernel installed on this platform")
	}
	rng := rand.New(rand.NewSource(13))
	saved := int8RowKernel
	defer func() { int8RowKernel = saved }()
	for _, sh := range [][3]int{{5, 16, 4}, {8, 32, 32}, {3, 33, 5}, {9, 7, 11}, {70, 48, 66}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randInt8(rng, m, k)
		b := randInt8(rng, n, k)
		simd := New(m, n)
		int8RowKernel = saved
		MatMulInt8BTInto(simd, a, b)
		scalar := New(m, n)
		int8RowKernel = nil
		MatMulInt8BTInto(scalar, a, b)
		for i := range simd.Data {
			if simd.Data[i] != scalar.Data[i] {
				t.Fatalf("shape %v: element %d: simd %v != scalar %v", sh, i, simd.Data[i], scalar.Data[i])
			}
		}
	}
}

// TestQuantizeRowsScalarSIMDAgree pins the asm quantization kernels
// (absmax reduce + fused round/pack) bit-exactly to the scalar
// math.Abs/math.Round path, including widths that exercise the 4-lane
// tails and adversarial values: exact half-way points, negative zeros,
// and magnitudes near the ±127 clamp boundary.
func TestQuantizeRowsScalarSIMDAgree(t *testing.T) {
	if !SIMDAvailable() {
		t.Skip("no SIMD kernels installed on this platform")
	}
	defer SetSIMD(true)
	rng := rand.New(rand.NewSource(19))
	for _, cols := range []int{1, 3, 4, 5, 7, 8, 31, 32, 40, 66} {
		x := New(8, cols)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64() * 5
		}
		// Adversarial rows (clipped to the row width).
		adv := []float64{0.5, -0.5, 1.5, -2.5, math.Copysign(0, -1), 127, -127, 63.5}
		for j := 0; j < cols && j < len(adv); j++ {
			x.Row(1)[j] = adv[j]
		}
		clear(x.Row(2)) // all-zero row

		qSIMD := NewInt8(8, cols)
		SetSIMD(true)
		QuantizeRowsInto(qSIMD, x)

		qScalar := NewInt8(8, cols)
		SetSIMD(false)
		QuantizeRowsInto(qScalar, x)
		SetSIMD(true)

		for i := range qSIMD.Scales {
			if qSIMD.Scales[i] != qScalar.Scales[i] {
				t.Fatalf("cols=%d row %d: simd scale %v != scalar %v", cols, i, qSIMD.Scales[i], qScalar.Scales[i])
			}
		}
		for i := range qSIMD.Data {
			if qSIMD.Data[i] != qScalar.Data[i] {
				t.Fatalf("cols=%d: element %d: simd %d != scalar %d", cols, i, qSIMD.Data[i], qScalar.Data[i])
			}
		}
	}
}

// TestMatMulInt8BTShapePanics pins the panic contract.
func TestMatMulInt8BTShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	MatMulInt8BTInto(New(2, 2), NewInt8(2, 3), NewInt8(2, 4))
}

// TestInt8MatrixPool checks pooled buffers resize and are safe to reuse.
func TestInt8MatrixPool(t *testing.T) {
	m := GetInt8Matrix(4, 40)
	if m.Rows != 4 || m.Cols != 40 || len(m.Data) != 160 || len(m.Scales) != 4 {
		t.Fatalf("GetInt8Matrix shape: %+v", m)
	}
	PutInt8Matrix(m)
	m2 := GetInt8Matrix(2, 16)
	if m2.Rows != 2 || m2.Cols != 16 || len(m2.Data) != 32 || len(m2.Scales) != 2 {
		t.Fatalf("reused matrix shape: %+v", m2)
	}
	PutInt8Matrix(m2)
}

// TestMatMulInt8BTFusedMatchesUnfused pins the fused-epilogue contract:
// MatMulInt8BTFusedInto must be bit-exact against the unfused sequence
// (matmul, then bias add, then ReLU) across blocking tails, with and
// without each epilogue stage.
func TestMatMulInt8BTFusedMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, sh := range [][3]int{{1, 1, 1}, {3, 5, 2}, {5, 16, 4}, {7, 9, 6}, {16, 32, 33}, {70, 64, 70}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := randInt8(rng, m, k)
		b := randInt8(rng, n, k)
		bias := make([]float64, n)
		for j := range bias {
			bias[j] = rng.NormFloat64()
		}
		for _, withBias := range []bool{false, true} {
			for _, relu := range []bool{false, true} {
				bs := bias
				if !withBias {
					bs = nil
				}
				want := New(m, n)
				MatMulInt8BTInto(want, a, b)
				for i := 0; i < m; i++ {
					row := want.Row(i)
					if bs != nil {
						for j := range row {
							row[j] += bs[j]
						}
					}
					if relu {
						for j, v := range row {
							if !(v > 0) {
								row[j] = 0
							}
						}
					}
				}
				got := New(m, n)
				MatMulInt8BTFusedInto(got, a, b, bs, relu)
				for i := range got.Data {
					if got.Data[i] != want.Data[i] {
						t.Fatalf("shape %v bias=%v relu=%v: element %d: fused %v != unfused %v",
							sh, withBias, relu, i, got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

// quantBenchDim matches the 128×128 float64 benchmark for an apples-to-
// apples kernel comparison (BenchmarkMatMul128).
const quantBenchDim = 128

// BenchmarkQuantizeRows measures per-row activation quantization at the
// serving shape (many short rows), the fixed cost every quantized layer
// pays before its matmul.
func BenchmarkQuantizeRows(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x := New(512, 32).Randn(rng, 1)
	q := NewInt8(512, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		QuantizeRowsInto(q, x)
	}
}

// BenchmarkMatMulInt8 measures the int8 kernel at the same shape as
// BenchmarkMatMul128; the ratio is the raw kernel-level quantization win.
func BenchmarkMatMulInt8(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := randInt8(rng, quantBenchDim, quantBenchDim)
	w := randInt8(rng, quantBenchDim, quantBenchDim)
	out := New(quantBenchDim, quantBenchDim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInt8BTInto(out, a, w)
	}
}
