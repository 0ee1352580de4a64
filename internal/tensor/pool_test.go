package tensor

import (
	"math/rand"
	"runtime"
	"testing"
)

// withGOMAXPROCS runs fn with GOMAXPROCS set to n, restoring the old value
// afterwards.
func withGOMAXPROCS(t *testing.T, n int, fn func()) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// TestMatMulDeterministicAcrossGOMAXPROCS: results must be bit-identical
// whatever GOMAXPROCS the process runs at.
func TestMatMulDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := New(130, 70).Randn(rng, 1)
	b := New(70, 90).Randn(rng, 1)
	var ref *Matrix
	for _, procs := range []int{1, 2, 4} {
		withGOMAXPROCS(t, procs, func() {
			got := MatMul(a, b)
			if ref == nil {
				ref = got
				return
			}
			for i, v := range got.Data {
				if v != ref.Data[i] {
					t.Fatalf("GOMAXPROCS=%d: element %d differs", procs, i)
				}
			}
		})
	}
}

func TestGetVecZeroedAndReused(t *testing.T) {
	v := GetVec(64)
	for i := range v {
		v[i] = float64(i + 1)
	}
	PutVec(v)
	w := GetVec(32) // smaller request may reuse the dirty buffer
	for i, x := range w {
		if x != 0 {
			t.Fatalf("GetVec returned dirty element %d = %g", i, x)
		}
	}
	PutVec(w)
	if got := GetVec(128); len(got) != 128 {
		t.Fatalf("len = %d", len(got))
	}
	if got := GetVecDirty(96); len(got) != 96 {
		t.Fatalf("dirty len = %d", len(got))
	}
	PutVec(nil) // must not panic
}

func TestGetMatrixShape(t *testing.T) {
	m := GetMatrix(3, 5)
	if m.Rows != 3 || m.Cols != 5 || len(m.Data) != 15 {
		t.Fatalf("bad pooled matrix %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(2, 4, 1)
	if m.At(2, 4) != 1 {
		t.Fatal("pooled matrix not addressable")
	}
	PutMatrix(m) // served from the smallest class, and filed back under it

	// Matrices recycle header and storage together (the steady-state Get/Put
	// cycle stays off the allocator — TestPoolSizeClasses). Whatever comes
	// back must carry the requested shape, fully usable.
	big := GetMatrix(16, 16)
	PutMatrix(big)
	reused := GetMatrixDirty(8, 32)
	if reused.Rows != 8 || reused.Cols != 32 || len(reused.Data) != 256 {
		t.Fatalf("reused matrix %dx%d len %d", reused.Rows, reused.Cols, len(reused.Data))
	}
	reused.Set(7, 31, 1)
	if reused.At(7, 31) != 1 {
		t.Fatal("reused matrix not addressable")
	}
	PutMatrix(reused)
}

// poolSizes are the request sizes TestPoolSizeClasses crosses the class
// boundaries with: below and at the smallest class, and one under, at and
// one over every power of two up to 2^20.
func poolSizes() []int {
	sizes := []int{1, 63, 64, 65}
	for k := 7; k <= 20; k++ {
		sizes = append(sizes, 1<<k-1, 1<<k, 1<<k+1)
	}
	return sizes
}

// panics reports whether fn panics.
func panics(fn func()) (did bool) {
	defer func() { did = recover() != nil }()
	fn()
	return false
}

// TestPoolSizeClasses holds the size-classed pools to their contract, on
// the float64 buffers, the float64 matrices and the int8 matrices, at every
// size in poolSizes:
//   - no Get hands out a buffer shorter than asked, or with less capacity,
//     even right after the pool was given buffers one element too small and
//     exactly the size asked;
//   - a Get after a Put in the same class allocates nothing, whichever size
//     of that class either asked for;
//   - a matrix put twice is filed once, and a matrix used after its Put
//     panics.
func TestPoolSizeClasses(t *testing.T) {
	for _, n := range poolSizes() {
		// The smallest and largest sizes the class of n serves.
		k := getClass(n)
		lo, hi := 1<<(k-1)+1, 1<<k
		if k == getClass(1) {
			lo = 1
		}

		if n > 1 {
			PutVec(make([]float64, n-1))
			PutMatrix(New(1, n-1))
			PutInt8Matrix(&Int8Matrix{Data: make([]int8, n-1)})
		}
		PutVec(make([]float64, n))
		PutMatrix(New(1, n))
		PutInt8Matrix(&Int8Matrix{Data: make([]int8, n)})
		v1, v2 := GetVecDirty(n), GetVecDirty(n)
		m1, m2 := GetMatrixDirty(1, n), GetMatrixDirty(1, n)
		q1, q2 := GetInt8Matrix(1, n), GetInt8Matrix(1, n)
		for _, v := range [][]float64{v1, v2} {
			if len(v) != n || cap(v) < n {
				t.Fatalf("GetVecDirty(%d): len %d cap %d", n, len(v), cap(v))
			}
		}
		for _, m := range []*Matrix{m1, m2} {
			if m.Rows != 1 || m.Cols != n || len(m.Data) != n {
				t.Fatalf("GetMatrixDirty(1, %d): %dx%d len %d", n, m.Rows, m.Cols, len(m.Data))
			}
		}
		for _, q := range []*Int8Matrix{q1, q2} {
			if q.Rows != 1 || q.Cols != n || len(q.Data) != n || len(q.Scales) != 1 {
				t.Fatalf("GetInt8Matrix(1, %d): %dx%d len %d, %d scales", n, q.Rows, q.Cols, len(q.Data), len(q.Scales))
			}
		}
		PutVec(v1)
		PutMatrix(m1)
		PutMatrix(m2)
		PutInt8Matrix(q1)

		m := GetMatrix(1, n)
		PutMatrix(m)
		if !panics(func() { m.Set(0, n-1, 1) }) {
			t.Fatalf("n=%d: a matrix used after its Put did not panic", n)
		}
		PutMatrix(m) // a no-op: m is already filed
		if a, b := GetMatrixDirty(1, n), GetMatrixDirty(1, n); a == b {
			t.Fatalf("n=%d: a matrix put twice was handed out twice", n)
		}

		if raceEnabled {
			continue // the detector makes sync.Pool drop items at random
		}
		for name, cycle := range map[string]func(int){
			"GetVec":        func(n int) { PutVec(GetVec(n)) },
			"GetVecDirty":   func(n int) { PutVec(GetVecDirty(n)) },
			"GetMatrix":     func(n int) { PutMatrix(GetMatrix(1, n)) },
			"GetInt8Matrix": func(n int) { PutInt8Matrix(GetInt8Matrix(1, n)) },
		} {
			if a := testing.AllocsPerRun(1, func() { cycle(lo); cycle(n); cycle(hi) }); a != 0 {
				t.Errorf("%s at %d, %d and %d, after a Put in their class: %.0f allocations", name, lo, n, hi, a)
			}
		}
	}
}

func TestMatMulATIntoReusesDirtyOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := New(8, 6).Randn(rng, 1)
	b := New(8, 7).Randn(rng, 1)
	want := MatMulAT(a, b)
	dirty := New(6, 7)
	for i := range dirty.Data {
		dirty.Data[i] = 99
	}
	MatMulATInto(dirty, a, b)
	for i := range want.Data {
		if dirty.Data[i] != want.Data[i] {
			t.Fatalf("element %d: %g vs %g", i, dirty.Data[i], want.Data[i])
		}
	}
}
