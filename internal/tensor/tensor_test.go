package tensor

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewAndAccess(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("m = %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Error("Set/At broken")
	}
	if m.Row(1)[2] != 7 {
		t.Error("Row view broken")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float64{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Error("FromSlice layout wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad length")
		}
	}()
	FromSlice(2, 2, []float64{1})
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, v := range want {
		if !almost(c.Data[i], v) {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulShapePanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

func TestMatMulATMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(5, 4).Randn(rng, 1)
	b := New(5, 6).Randn(rng, 1)
	got := MatMulAT(a, b)
	at := New(4, 5)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	for i := range want.Data {
		if !almost(got.Data[i], want.Data[i]) {
			t.Fatalf("MatMulAT mismatch at %d: %g vs %g", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMatMulBTMatchesExplicitTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := New(3, 7).Randn(rng, 1)
	b := New(5, 7).Randn(rng, 1)
	got := New(3, 5)
	MatMulBTInto(got, a, b)
	bt := New(7, 5)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := MatMul(a, bt)
	for i := range want.Data {
		if !almost(got.Data[i], want.Data[i]) {
			t.Fatalf("MatMulBTInto mismatch at %d", i)
		}
	}
}

// TestMatMulParallelDeterministic checks an 80×70 product against a serial
// reference computing the same FMA chains, bit for bit.
func TestMatMulParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(80, 90).Randn(rng, 1)
	b := New(90, 70).Randn(rng, 1)
	c1 := MatMul(a, b)
	// Serial reference computing the kernel's exact FMA chains (float.go).
	ref := New(80, 70)
	for i := 0; i < 80; i++ {
		for k := 0; k < 90; k++ {
			av := a.At(i, k)
			for j := 0; j < 70; j++ {
				ref.Data[i*70+j] = math.FMA(av, b.At(k, j), ref.Data[i*70+j])
			}
		}
	}
	for i := range ref.Data {
		if c1.Data[i] != ref.Data[i] {
			t.Fatalf("parallel result differs from serial at %d", i)
		}
	}
	c2 := MatMul(a, b)
	for i := range c1.Data {
		if c1.Data[i] != c2.Data[i] {
			t.Fatal("repeated MatMul not bit-identical")
		}
	}
}

func TestRowSoftmax(t *testing.T) {
	m := FromSlice(2, 3, []float64{1, 2, 3, 1000, 1000, 1000})
	RowSoftmax(m)
	for i := 0; i < 2; i++ {
		sum := 0.0
		for j := 0; j < 3; j++ {
			v := m.At(i, j)
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("softmax value out of range: %g", v)
			}
			sum += v
		}
		if !almost(sum, 1) {
			t.Fatalf("row %d sums to %g", i, sum)
		}
	}
	if !(m.At(0, 2) > m.At(0, 1) && m.At(0, 1) > m.At(0, 0)) {
		t.Error("softmax not monotone")
	}
	// Large-magnitude row must not produce NaN (stabilization).
	if math.IsNaN(m.At(1, 0)) {
		t.Error("softmax overflowed")
	}
}

func TestSoftmaxVecProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, 0, len(raw))
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				x = 0
			}
			v = append(v, math.Mod(x, 50))
		}
		out := SoftmaxVec(v)
		sum := 0.0
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return math.Abs(sum-1) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDotAxpy(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{4, 5, 6}
	if Dot(a, b) != 32 {
		t.Errorf("dot = %g", Dot(a, b))
	}
	y := []float64{1, 1, 1}
	Axpy(2, a, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("axpy = %v", y)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromSlice(1, 2, []float64{1, 2})
	c := m.Clone()
	c.Data[0] = 99
	if m.Data[0] == 99 {
		t.Error("Clone shares storage")
	}
}

func TestZeroScaleAdd(t *testing.T) {
	m := FromSlice(1, 3, []float64{1, 2, 3})
	b := FromSlice(1, 3, []float64{1, 1, 1})
	m.AddInPlace(b)
	if m.Data[2] != 4 {
		t.Error("AddInPlace wrong")
	}
	m.ScaleInPlace(2)
	if m.Data[0] != 4 {
		t.Error("ScaleInPlace wrong")
	}
	m.Zero()
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestRandnSeeded(t *testing.T) {
	a := New(4, 4).Randn(rand.New(rand.NewSource(7)), 0.5)
	b := New(4, 4).Randn(rand.New(rand.NewSource(7)), 0.5)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("Randn not deterministic under equal seeds")
		}
	}
	if !slices.ContainsFunc(a.Data, func(v float64) bool { return v != 0 }) {
		t.Error("Randn produced all zeros")
	}
}

// Property: matrix multiplication is associative, (A·B)·C ≈ A·(B·C).
func TestMatMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m, k, n, p := 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8), 1+rng.Intn(8)
		a := New(m, k).Randn(rng, 1)
		b := New(k, n).Randn(rng, 1)
		c := New(n, p).Randn(rng, 1)
		left := MatMul(MatMul(a, b), c)
		right := MatMul(a, MatMul(b, c))
		for i := range left.Data {
			if math.Abs(left.Data[i]-right.Data[i]) > 1e-8 {
				t.Fatalf("associativity violated at %d: %g vs %g", i, left.Data[i], right.Data[i])
			}
		}
	}
}

func BenchmarkMatMul64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(64, 64).Randn(rng, 1)
	y := New(64, 64).Randn(rng, 1)
	out := New(64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := New(128, 128).Randn(rng, 1)
	y := New(128, 128).Randn(rng, 1)
	out := New(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}
