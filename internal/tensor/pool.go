package tensor

import (
	"math/bits"
	"sync"
)

// This file holds the []float64 and *Matrix buffer pools, by size class,
// that back scratch matrices and softmax outputs in the matmul/backprop hot
// path.

// The buffer pools are split by power-of-two size class: class k holds
// buffers whose capacity is at least 1<<k. A Get looks only in the class of
// its size rounded up, so whatever it finds fits, and a miss allocates the
// class's full capacity, so the buffer it makes serves every later request
// of that class. A Put files a buffer under the largest class its capacity
// covers. One size-agnostic pool would hand a forward's small softmax
// buffer to its next matrix-sized Get, fail the fit and allocate anyway.
type classPools [bits.UintSize]sync.Pool

// minPooledCap is the smallest class: smaller requests are served from it,
// and smaller buffers (made outside the pool) are never filed.
const minPooledCap = 64

// getClass is the class a request for n elements looks in.
func getClass(n int) int { return bits.Len(uint(max(n, minPooledCap) - 1)) }

// putClass is the class a buffer of capacity c files under, -1 when c is
// below minPooledCap.
func putClass(c int) int {
	if c < minPooledCap {
		return -1
	}
	return bits.Len(uint(c)) - 1
}

// vecPools hold recycled buffers boxed in *[]float64; boxPool holds the
// empty boxes those buffers arrived in. Recycling the boxes matters as much
// as recycling the buffers: `vecPools[k].Put(&v)` with a fresh box allocates a
// slice header on every release, which the allocation profile showed was
// the single largest allocation source in the batched forward path —
// PutVec itself. With the box round-trip, the steady-state Get/Put cycle
// touches the allocator only when a class runs dry.
var (
	vecPools classPools // *[]float64, len 0, capacity of the class
	boxPool  sync.Pool  // *[]float64, nil slice: an empty box awaiting reuse
)

// GetVec returns a zeroed []float64 of length n, reusing pooled capacity
// when possible. Pair with PutVec once the buffer is dead; the scratch
// matrices of one backward pass then stop hitting the allocator entirely.
func GetVec(n int) []float64 {
	v := GetVecDirty(n)
	clear(v)
	return v
}

// GetVecDirty is GetVec without the clear, for callers that fully assign
// the buffer before reading it — skipping one O(n) memory pass per use.
func GetVecDirty(n int) []float64 {
	k := getClass(n)
	if p, _ := vecPools[k].Get().(*[]float64); p != nil {
		v := (*p)[:n]
		*p = nil
		boxPool.Put(p)
		return v
	}
	return make([]float64, n, 1<<k)
}

// PutVec recycles a buffer obtained from GetVec (or any slice the caller no
// longer references — the pool only cares about capacity). Buffers smaller
// than minPooledCap are dropped.
func PutVec(v []float64) {
	k := putClass(cap(v))
	if k < 0 {
		return
	}
	p, _ := boxPool.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	*p = v[:0]
	vecPools[k].Put(p)
}

// matrixPools recycle whole *Matrix values — header and backing storage
// together — so the hot forward/backward paths pay no allocation for either
// on the steady-state Get/Put cycle.
var matrixPools classPools

// GetMatrix returns a zeroed rows×cols matrix backed by pooled storage.
// Release it with PutMatrix when its lifetime ends; matrices that escape
// into long-lived caches must use New instead.
func GetMatrix(rows, cols int) *Matrix {
	m := GetMatrixDirty(rows, cols)
	clear(m.Data)
	return m
}

// GetMatrixDirty is GetMatrix without the clear, for outputs every element
// of which is assigned before being read (MatMulATInto, attention dAttn).
func GetMatrixDirty(rows, cols int) *Matrix {
	n := rows * cols
	k := getClass(n)
	m, _ := matrixPools[k].Get().(*Matrix)
	if m == nil {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n, 1<<k)}
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// PutMatrix recycles a matrix obtained from GetMatrix. The matrix must not
// be used afterwards: its header and storage will be handed to a future
// GetMatrix caller. The data is truncated to length zero on release, so
// any use-after-put indexes out of range and panics deterministically, and
// a double-put (len already zero) is a no-op instead of inserting the same
// matrix into the pool twice.
func PutMatrix(m *Matrix) {
	k := putClass(cap(m.Data))
	if k < 0 || len(m.Data) == 0 {
		return
	}
	m.Data = m.Data[:0]
	matrixPools[k].Put(m)
}
