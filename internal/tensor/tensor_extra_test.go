package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func expectPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", name)
		}
	}()
	fn()
}

func TestShapePanics(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	expectPanic(t, "MatMulInto", func() { MatMulInto(New(2, 2), a, b) })
	expectPanic(t, "MatMulAT", func() { MatMulAT(New(3, 2), New(2, 2)) })
	expectPanic(t, "MatMulBTInto", func() { MatMulBTInto(New(2, 2), New(2, 3), New(2, 4)) })
	expectPanic(t, "AddInPlace", func() { a.AddInPlace(New(3, 2)) })
	expectPanic(t, "Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	expectPanic(t, "Axpy", func() { Axpy(1, []float64{1}, []float64{1, 2}) })
}

func TestMatMulIntoReusesBuffer(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(3, 4).Randn(rng, 1)
	b := New(4, 2).Randn(rng, 1)
	out := New(3, 2)
	for i := range out.Data {
		out.Data[i] = 99 // stale values must be overwritten
	}
	MatMulInto(out, a, b)
	want := MatMul(a, b)
	for i := range want.Data {
		if out.Data[i] != want.Data[i] {
			t.Fatalf("stale data survived at %d", i)
		}
	}
}

func TestRowSoftmaxAllNegInf(t *testing.T) {
	// A row of -Inf yields sum 0; the guard must avoid NaN writes.
	m := FromSlice(1, 2, []float64{math.Inf(-1), math.Inf(-1)})
	RowSoftmax(m)
	for _, v := range m.Data {
		if math.IsNaN(v) {
			t.Fatal("NaN leaked from degenerate softmax row")
		}
	}
}

func TestSoftmaxVecEmpty(t *testing.T) {
	if out := SoftmaxVec(nil); len(out) != 0 {
		t.Fatal("empty softmax should be empty")
	}
}

func TestMatMulZeroDimensions(t *testing.T) {
	// Degenerate shapes must not panic.
	a := New(0, 3)
	b := New(3, 2)
	c := MatMul(a, b)
	if c.Rows != 0 || c.Cols != 2 {
		t.Fatalf("c = %dx%d", c.Rows, c.Cols)
	}
	d := MatMul(New(2, 0), New(0, 2))
	for _, v := range d.Data {
		if v != 0 {
			t.Fatal("empty inner dim should give zeros")
		}
	}
}

func TestSparseSkipInMatMul(t *testing.T) {
	// Sparse activation rows (zeros in a) must not change results.
	a := FromSlice(2, 2, []float64{0, 1, 2, 0})
	b := FromSlice(2, 2, []float64{5, 6, 7, 8})
	c := MatMul(a, b)
	want := []float64{7, 8, 10, 12}
	for i := range want {
		if c.Data[i] != want[i] {
			t.Fatalf("c = %v", c.Data)
		}
	}
}
