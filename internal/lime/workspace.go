package lime

import (
	"math"
	"math/rand"
	"sync"
)

// workspace is the scratch memory of one explanation: the generator, the
// sampled variants as kept-position lists, their locality weights, the
// model's scores, the surrogate's normal equations and their solution.
// Workspaces are pooled; one holds numbers only, so a pooled one pins
// nothing of the input it last served, and only the attributions are
// allocated per explanation.
type workspace struct {
	rng     *rand.Rand
	removed []bool    // the sample being drawn
	kept    []int32   // Variants.kept
	off     []int32   // Variants.off
	w       []float64 // locality weight per variant
	y       []float64 // model score per variant
	a       []float64 // (T+1)×(T+1) normal matrix, row-major
	rows    [][]float64
	b       []float64
	x       []float64 // the surrogate's coefficients, intercept first
}

var workspaces = sync.Pool{New: func() any {
	return &workspace{rng: rand.New(rand.NewSource(0))}
}}

// resize returns s with length n, reusing its capacity; the contents are
// whatever the last explanation left.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// sample draws the perturbation set over T token positions: the full
// input, then up to nSamples variants that each remove a uniformly sized,
// uniformly placed subset. Re-seeding the pooled generator restores the
// exact sequence a fresh rand.NewSource(seed) would give.
func (ws *workspace) sample(T, nSamples int, seed int64) Variants {
	ws.rng.Seed(seed)
	ws.removed = resize(ws.removed, T)
	ws.kept, ws.off, ws.w = ws.kept[:0], append(ws.off[:0], 0), ws.w[:0]

	// The unperturbed instance, with maximal weight.
	for i := 0; i < T; i++ {
		ws.kept = append(ws.kept, int32(i))
	}
	ws.off = append(ws.off, int32(T))
	ws.w = append(ws.w, 1)

	for s := 0; s < nSamples; s++ {
		// Sample the number of removals uniformly, then the positions.
		clear(ws.removed)
		nRemove := 1 + ws.rng.Intn(T)
		for n := 0; n < nRemove; {
			if i := ws.rng.Intn(T); !ws.removed[i] {
				ws.removed[i] = true
				n++
			}
		}
		kept := T - nRemove
		if kept == 0 {
			continue
		}
		for i, gone := range ws.removed {
			if !gone {
				ws.kept = append(ws.kept, int32(i))
			}
		}
		ws.off = append(ws.off, int32(len(ws.kept)))
		// Cosine distance between the 0/1 mask and the all-ones vector is
		// 1 - sqrt(kept/T); the kernel turns it into a locality weight.
		d := 1 - math.Sqrt(float64(kept)/float64(T))
		ws.w = append(ws.w, math.Exp(-(d*d)/(KernelWidth*KernelWidth)))
	}
	return Variants{kept: ws.kept, off: ws.off}
}

// fit solves the weighted ridge regression (XᵀWX + λI)β = XᵀWy, where row
// i of X is 1 in column 0 (the intercept, not regularized) and in column
// p+1 for every position p variant i keeps. X is never built: its rows are
// 0/1, so each variant adds its weight to the cells its kept columns pair
// up in, variant by variant — the sums a dense product would reach, in the
// same order.
func (ws *workspace) fit(v Variants, T int, lambda float64) []float64 {
	d := T + 1
	ws.a, ws.b, ws.rows = resize(ws.a, d*d), resize(ws.b, d), resize(ws.rows, d)
	clear(ws.a)
	clear(ws.b)
	A, b := ws.rows, ws.b
	for i := range A {
		A[i] = ws.a[i*d : (i+1)*d]
	}
	for s := 0; s < v.Len(); s++ {
		kept, wt, ys := v.Kept(s), ws.w[s], ws.y[s]
		b[0] += wt * ys
		A[0][0] += wt
		for _, j := range kept {
			A[0][j+1] += wt
		}
		for n, i := range kept {
			b[i+1] += wt * ys
			row := A[i+1]
			for _, j := range kept[n:] {
				row[j+1] += wt
			}
		}
	}
	for i := 0; i < d; i++ {
		for j := 0; j < i; j++ {
			A[i][j] = A[j][i]
		}
	}
	for i := 1; i < d; i++ { // skip intercept
		A[i][i] += lambda
	}
	ws.x = resize(ws.x, d)
	solve(A, b, ws.x)
	return ws.x
}
