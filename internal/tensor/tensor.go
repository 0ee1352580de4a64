// Package tensor provides the dense float64 matrix kernels behind the
// transformer implementation: allocation, seeded random init, matrix
// products in the three orientations backpropagation needs, row-wise
// softmax, and elementwise helpers. Every kernel runs on the calling
// goroutine; parallelism lives with the callers that batch whole sequences
// or examples. A []float64 buffer pool (pool.go) recycles hot-path scratch
// storage.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New allocates a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Randn fills the matrix with N(0, std²) samples from rng.
func (m *Matrix) Randn(rng *rand.Rand, std float64) *Matrix {
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * std
	}
	return m
}

// AddInPlace adds b elementwise.
func (m *Matrix) AddInPlace(b *Matrix) {
	checkSame(m, b)
	for i := range m.Data {
		m.Data[i] += b.Data[i]
	}
}

// ScaleInPlace multiplies all elements by c.
func (m *Matrix) ScaleInPlace(c float64) {
	for i := range m.Data {
		m.Data[i] *= c
	}
}

func checkSame(a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMul computes out = a·b, allocating out. a is m×k, b is k×n.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul inner dims %d vs %d", a.Cols, b.Rows))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a·b into a preallocated out. Each output
// element is one FMA chain in ascending k (see float.go for the kernel
// contract shared by the AVX2 and scalar paths).
func MatMulInto(out, a, b *Matrix) {
	matMulEpilogue(out, a, b, nil, false)
}

// MatMulAT computes out = aᵀ·b, allocating out. a is k×m, b is k×n, out m×n.
func MatMulAT(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulATInto(out, a, b)
	return out
}

// MatMulATInto computes out = aᵀ·b into a preallocated (possibly dirty) out.
func MatMulATInto(out, a, b *Matrix) {
	if a.Rows != b.Rows || out.Rows != a.Cols || out.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATInto shape %dx%d = (%dx%d)ᵀ·%dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	K, N := a.Rows, b.Cols
	for i := 0; i < out.Rows; i++ {
		if K == 0 {
			clear(out.Row(i))
			continue
		}
		// Column i of a is a strided vector: elements a.Data[i+k*a.Cols].
		f64GemmRow(out.Row(i), a.Data[i:], a.Cols, b.Data, b.Cols, nil, K, N, false)
	}
}

// RowSoftmax applies softmax to each row in place, numerically stabilized.
// Degenerate rows (all -Inf) become all-zero rather than NaN.
func RowSoftmax(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		if math.IsInf(maxv, -1) {
			for j := range row {
				row[j] = 0
			}
			continue
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - maxv)
			row[j] = e
			sum += e
		}
		if sum == 0 {
			continue
		}
		inv := 1 / sum
		for j := range row {
			row[j] *= inv
		}
	}
}

// SoftmaxVec computes softmax of a vector, returning a new slice.
func SoftmaxVec(v []float64) []float64 {
	return SoftmaxVecInto(make([]float64, len(v)), v)
}

// SoftmaxVecInto computes softmax of v into out (len(out) == len(v)) and
// returns out. Callers on the hot path pair it with GetVec/PutVec.
func SoftmaxVecInto(out, v []float64) []float64 {
	if len(out) != len(v) {
		panic("tensor: SoftmaxVecInto length mismatch")
	}
	maxv := math.Inf(-1)
	for _, x := range v {
		if x > maxv {
			maxv = x
		}
	}
	sum := 0.0
	for i, x := range v {
		e := math.Exp(x - maxv)
		out[i] = e
		sum += e
	}
	if sum > 0 {
		inv := 1 / sum
		for i := range out {
			out[i] *= inv
		}
	}
	return out
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	s := 0.0
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Axpy computes y += alpha*x over vectors.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: Axpy length mismatch")
	}
	for i, v := range x {
		y[i] += alpha * v
	}
}

// AddInto computes dst = a + b elementwise. dst may alias a or b.
func AddInto(dst, a, b *Matrix) {
	checkSame(a, b)
	checkSame(dst, a)
	for i := range dst.Data {
		dst.Data[i] = a.Data[i] + b.Data[i]
	}
}
