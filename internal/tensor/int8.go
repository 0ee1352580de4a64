package tensor

import (
	"fmt"
	"math"
)

// Int8 quantized kernels. The serving stack quantizes weight matrices once
// (per output channel, symmetric absmax — see internal/quant) and
// activations on the fly (per row, same scheme), then replaces the float64
// matmul with an int8×int8→int32 product that is dequantized through
// float32 scale products. The layout is chosen for the dot-product kernel:
// the right-hand operand is stored transposed (one output channel per row),
// so both operands stream contiguously and per-channel scales attach to
// rows on both sides.
//
// Accumulation is exact: |a|,|b| ≤ 127, so int32 holds any inner dimension
// below ~133k without overflow — far beyond this repo's model shapes.

// Int8Matrix is a dense row-major int8 matrix with one float32
// dequantization scale per row. A value v at (i, j) represents the real
// number float64(v) * float64(Scales[i]).
type Int8Matrix struct {
	Rows, Cols int
	Data       []int8
	Scales     []float32
}

// NewInt8 allocates a zeroed rows×cols int8 matrix with unit scales.
func NewInt8(rows, cols int) *Int8Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	m := &Int8Matrix{Rows: rows, Cols: cols, Data: make([]int8, rows*cols), Scales: make([]float32, rows)}
	for i := range m.Scales {
		m.Scales[i] = 1
	}
	return m
}

// Row returns a view of row i.
func (m *Int8Matrix) Row(i int) []int8 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// f64AbsMaxKernel and f64QuantRowKernel, when non-nil, are the asm
// activation-quantization kernels (int8_amd64.go), covering the 4-aligned
// prefix of a row; scalar code finishes tails. Both are bit-identical to
// the scalar path on finite inputs.
var (
	f64AbsMaxKernel   func(p *float64, n4 int) float64
	f64QuantRowKernel func(src *float64, dst *int8, inv float64, n4 int)
)

// QuantizeRowsInto quantizes each row of src into dst with symmetric absmax
// scales: scale_i = max_j |src[i][j]| / 127, q = round(v / scale_i). An
// all-zero row gets scale 1 so dequantization never divides by zero. dst
// must match src's shape; it is fully assigned.
func QuantizeRowsInto(dst *Int8Matrix, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(fmt.Sprintf("tensor: QuantizeRowsInto shape %dx%d vs %dx%d",
			dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	maxKern, quantKern := f64AbsMaxKernel, f64QuantRowKernel
	for i := 0; i < src.Rows; i++ {
		row := src.Row(i)
		n := len(row)
		n4 := n &^ 3
		amax := 0.0
		j := 0
		if maxKern != nil && n4 > 0 {
			amax = maxKern(&row[0], n4)
			j = n4
		}
		for ; j < n; j++ {
			if a := math.Abs(row[j]); a > amax {
				amax = a
			}
		}
		if amax == 0 {
			dst.Scales[i] = 1
			clear(dst.Row(i))
			continue
		}
		scale := amax / 127
		dst.Scales[i] = float32(scale)
		inv := 1 / scale
		q := dst.Row(i)[:n]
		j = 0
		if quantKern != nil && n4 > 0 {
			quantKern(&row[0], &q[0], inv, n4)
			j = n4
		}
		for ; j < n; j++ {
			q[j] = int8(math.Round(row[j] * inv))
		}
	}
}

// int8RowKernel, when non-nil, computes one activation row against every
// output channel of b in place of the portable scalar path. It is installed
// once at init by platform code (int8_amd64.go wires an AVX2
// VPMOVSXBW/VPMADDWD kernel when the CPU supports it) and produces results
// bit-identical to the scalar kernel: int32 accumulation is associative, so
// vector-lane reassociation is exact.
var int8RowKernel func(o []float64, arow []int8, s float32, b *Int8Matrix, K, N int)

// The scalar kernel register-blocks 2 activation rows × 4 output channels: six
// int8 loads feed eight multiply-accumulates, the activation rows are read
// once per channel block instead of once per channel, and the eight
// independent accumulators hide integer add latency that a single serial
// accumulator would expose. Slices are re-cut to a common length so the
// compiler drops the inner-loop bounds checks.

// MatMulInt8BTInto computes the dequantized product out = a·bᵀ where a is
// M×K (activations, per-row scales) and b is N×K (weights stored
// transposed, one output channel per row with its per-channel scale). The
// inner product accumulates in int32 and is dequantized with the float32
// scale product, then widened into the float64 out (M×N), which is fully
// assigned.
func MatMulInt8BTInto(out *Matrix, a, b *Int8Matrix) {
	int8MatMulEpilogue(out, a, b, nil, false)
}

// MatMulInt8BTFusedInto is MatMulInt8BTInto with the serving epilogue
// folded into the output loop: out = act(dequant(a·bᵀ) + bias), applied per
// row while it is still cache-hot instead of as separate full-matrix bias
// and activation sweeps. bias may be nil; relu stores max(v, +0) with the
// same !(v > 0) convention as the float kernels. The result is bit-exact
// against MatMulInt8BTInto followed by unfused bias-add and ReLU passes
// (the epilogue performs the identical per-element operations in the
// identical order).
func MatMulInt8BTFusedInto(out *Matrix, a, b *Int8Matrix, bias []float64, relu bool) {
	int8MatMulEpilogue(out, a, b, bias, relu)
}

func int8MatMulEpilogue(out *Matrix, a, b *Int8Matrix, bias []float64, relu bool) {
	if a.Cols != b.Cols || out.Rows != a.Rows || out.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulInt8BTInto shape %dx%d = %dx%d · (%dx%d)ᵀ",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if bias != nil && len(bias) < b.Rows {
		panic("tensor: MatMulInt8BTInto bias shorter than output width")
	}
	K, N := a.Cols, b.Rows
	if kern := int8RowKernel; kern != nil { // non-nil when the platform installed a SIMD kernel
		for i := 0; i < a.Rows; i++ {
			orow := out.Row(i)
			kern(orow, a.Row(i), a.Scales[i], b, K, N)
			int8BiasReLU(orow, bias, relu)
		}
		return
	}
	i := 0
	for ; i+2 <= a.Rows; i += 2 {
		int8DotRows2(out.Row(i), out.Row(i+1), a.Row(i), a.Row(i+1),
			a.Scales[i], a.Scales[i+1], b, K, N)
		int8BiasReLU(out.Row(i), bias, relu)
		int8BiasReLU(out.Row(i+1), bias, relu)
	}
	for ; i < a.Rows; i++ {
		int8DotRows1(out.Row(i), a.Row(i), a.Scales[i], b, K, N)
		int8BiasReLU(out.Row(i), bias, relu)
	}
}

// int8BiasReLU applies the fused serving epilogue to one dequantized output
// row, in the same per-element order as the unfused passes.
func int8BiasReLU(orow, bias []float64, relu bool) {
	if bias != nil {
		for j, bv := range bias[:len(orow)] {
			orow[j] += bv
		}
	}
	if relu {
		for j, v := range orow {
			if !(v > 0) { // match the float kernels: -0 and NaN → +0
				orow[j] = 0
			}
		}
	}
}

// int8DotRows2 computes two output rows against every channel of b with 2×4
// register blocking.
func int8DotRows2(o0, o1 []float64, a0, a1 []int8, s0, s1 float32, b *Int8Matrix, K, N int) {
	a0 = a0[:K]
	a1 = a1[:K]
	j := 0
	for ; j+4 <= N; j += 4 {
		b0 := b.Row(j)[:K]
		b1 := b.Row(j + 1)[:K]
		b2 := b.Row(j + 2)[:K]
		b3 := b.Row(j + 3)[:K]
		var p0, p1, p2, p3, q0, q1, q2, q3 int32
		for k := 0; k < K; k++ {
			u := int32(a0[k])
			v := int32(a1[k])
			w0 := int32(b0[k])
			w1 := int32(b1[k])
			w2 := int32(b2[k])
			w3 := int32(b3[k])
			p0 += u * w0
			p1 += u * w1
			p2 += u * w2
			p3 += u * w3
			q0 += v * w0
			q1 += v * w1
			q2 += v * w2
			q3 += v * w3
		}
		o0[j] = float64(float32(p0) * s0 * b.Scales[j])
		o0[j+1] = float64(float32(p1) * s0 * b.Scales[j+1])
		o0[j+2] = float64(float32(p2) * s0 * b.Scales[j+2])
		o0[j+3] = float64(float32(p3) * s0 * b.Scales[j+3])
		o1[j] = float64(float32(q0) * s1 * b.Scales[j])
		o1[j+1] = float64(float32(q1) * s1 * b.Scales[j+1])
		o1[j+2] = float64(float32(q2) * s1 * b.Scales[j+2])
		o1[j+3] = float64(float32(q3) * s1 * b.Scales[j+3])
	}
	for ; j < N; j++ {
		brow := b.Row(j)[:K]
		var p, q int32
		for k := 0; k < K; k++ {
			w := int32(brow[k])
			p += int32(a0[k]) * w
			q += int32(a1[k]) * w
		}
		o0[j] = float64(float32(p) * s0 * b.Scales[j])
		o1[j] = float64(float32(q) * s1 * b.Scales[j])
	}
}

// int8DotRows1 is the single-row tail of the 2×4 blocking.
func int8DotRows1(o []float64, arow []int8, s float32, b *Int8Matrix, K, N int) {
	arow = arow[:K]
	j := 0
	for ; j+4 <= N; j += 4 {
		b0 := b.Row(j)[:K]
		b1 := b.Row(j + 1)[:K]
		b2 := b.Row(j + 2)[:K]
		b3 := b.Row(j + 3)[:K]
		var p0, p1, p2, p3 int32
		for k := 0; k < K; k++ {
			u := int32(arow[k])
			p0 += u * int32(b0[k])
			p1 += u * int32(b1[k])
			p2 += u * int32(b2[k])
			p3 += u * int32(b3[k])
		}
		o[j] = float64(float32(p0) * s * b.Scales[j])
		o[j+1] = float64(float32(p1) * s * b.Scales[j+1])
		o[j+2] = float64(float32(p2) * s * b.Scales[j+2])
		o[j+3] = float64(float32(p3) * s * b.Scales[j+3])
	}
	for ; j < N; j++ {
		brow := b.Row(j)[:K]
		var p int32
		for k := 0; k < K; k++ {
			p += int32(arow[k]) * int32(brow[k])
		}
		o[j] = float64(float32(p) * s * b.Scales[j])
	}
}

// ---------------------------------------------------------------------------
// int8 buffer pool (activation quantization scratch)
// ---------------------------------------------------------------------------

// int8Pools are classed by the capacity of Data, as the float64 pools are
// (see classPools); Scales is kept with its header and grows only when a
// request has more rows than it held.
var int8Pools classPools

// GetInt8Matrix returns an uninitialized rows×cols Int8Matrix backed by
// pooled storage, for callers that fully assign it (QuantizeRowsInto).
// Release with PutInt8Matrix.
func GetInt8Matrix(rows, cols int) *Int8Matrix {
	n := rows * cols
	k := getClass(n)
	m, _ := int8Pools[k].Get().(*Int8Matrix)
	if m == nil {
		m = &Int8Matrix{Data: make([]int8, 0, 1<<k)}
	}
	if cap(m.Scales) < rows {
		m.Scales = make([]float32, rows)
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:n]
	m.Scales = m.Scales[:rows]
	return m
}

// PutInt8Matrix recycles a matrix obtained from GetInt8Matrix. The matrix
// must not be used afterwards.
func PutInt8Matrix(m *Int8Matrix) {
	if k := putClass(cap(m.Data)); k >= 0 {
		int8Pools[k].Put(m)
	}
}
