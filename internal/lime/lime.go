// Package lime implements the LIME explainability algorithm (Ribeiro et
// al. 2016) for text classifiers, as the paper applies it in §5.4 /
// Figure 8: perturb the input by removing token subsets, query the model on
// each perturbation, weight samples by locality, and fit a ridge-regression
// surrogate whose coefficients attribute the prediction to tokens.
//
// There is one sampler and one fit, and they work on token positions:
// ExplainVariants is the core, handing the model each perturbation as the
// ascending list of positions it keeps (Variants). ExplainBatch is the
// adapter that spells the same lists out as token slices for models that
// take strings. Everything but the result — the generator, the kept
// lists, the weights and the normal equations — lives in one pooled
// workspace per explanation (workspace.go), so the cost of an explanation
// in allocations does not depend on the sample count.
package lime

import (
	"fmt"
	"math"
	"slices"
)

// Attribution is one token's contribution to the positive-class score. It
// is also the scan report's and the wire's attribution item, under these
// keys.
type Attribution struct {
	Index  int     `json:"index"`            // token position in the input
	Token  string  `json:"token"`            // token text
	Weight float64 `json:"weight,omitempty"` // surrogate coefficient; positive pushes toward class 1
}

const (
	// KernelWidth scales the exponential locality kernel.
	KernelWidth = 0.75
	// Ridge is the L2 regularizer of the surrogate fit.
	Ridge = 1e-3
)

// Explainer configures the LIME procedure.
type Explainer struct {
	// Samples is the number of perturbed inputs (New sets 300).
	Samples int
	// Seed drives the perturbation sampling.
	Seed int64
}

// New returns an Explainer with defaults.
func New(seed int64) *Explainer {
	return &Explainer{Samples: 300, Seed: seed}
}

// Variants is the perturbation set of one explanation in index form:
// variant i keeps the token positions Kept(i), and variant 0 is the
// unperturbed input. It is a view of the explanation's pooled workspace,
// valid only until the predict call it was handed to returns.
type Variants struct {
	kept []int32 // every variant's kept positions, end to end
	off  []int32 // variant i is kept[off[i]:off[i+1]]
}

// Len is the number of variants.
func (v Variants) Len() int { return len(v.off) - 1 }

// Kept returns the positions variant i keeps, ascending and never empty.
func (v Variants) Kept(i int) []int32 { return v.kept[v.off[i]:v.off[i+1]] }

// ExplainBatch attributes predict's positive-class score on tokens to the
// individual tokens, returning attributions sorted by |weight| descending,
// truncated to topK (topK <= 0 returns all). Every perturbed variant is
// collected first and predict is called exactly once over all of them, so a
// backend with batched forwards (core.PredictBatch, the serving engine)
// amortizes its per-call overhead across the whole perturbation set. It is
// the string view of ExplainVariants — the same sampling, weighting and fit,
// so for a given Seed both entry points return the same attributions —
// with variant 0 the caller's own tokens and the rest cut from one backing
// array that is allocated per call and is the caller's to keep.
func (e *Explainer) ExplainBatch(tokens []string, predict func([][]string) []float64, topK int) []Attribution {
	return e.ExplainVariants(tokens, func(v Variants, y []float64) {
		n := v.Len()
		batch := make([][]string, n)
		batch[0] = tokens
		flat := make([]string, 0, len(v.kept)-len(tokens))
		for i := 1; i < n; i++ {
			lo := len(flat)
			for _, p := range v.Kept(i) {
				flat = append(flat, tokens[p])
			}
			batch[i] = flat[lo:len(flat):len(flat)]
		}
		out := predict(batch)
		if len(out) != n {
			panic(fmt.Sprintf("lime: predict returned %d scores for %d variants", len(out), n))
		}
		copy(y, out)
	}, topK)
}

// ExplainVariants is the core every entry point runs: it draws the
// perturbation set as kept-position lists, calls predict exactly once to
// fill y[i] with the model's positive-class score on variant i (y has
// v.Len() slots and, like v, belongs to the workspace), and fits the
// surrogate from the lists. A model that takes ids gathers each variant
// from the once-encoded input and never builds a token slice.
func (e *Explainer) ExplainVariants(tokens []string, predict func(v Variants, y []float64), topK int) []Attribution {
	T := len(tokens)
	if T == 0 {
		return nil
	}
	ws := workspaces.Get().(*workspace)
	defer workspaces.Put(ws)

	v := ws.sample(T, e.Samples, e.Seed)
	ws.y = resize(ws.y, v.Len())
	predict(v, ws.y)
	beta := ws.fit(v, T, Ridge)

	attrs := make([]Attribution, T)
	for i := 0; i < T; i++ {
		attrs[i] = Attribution{Index: i, Token: tokens[i], Weight: beta[i+1]}
	}
	slices.SortFunc(attrs, func(a, b Attribution) int {
		switch wa, wb := math.Abs(a.Weight), math.Abs(b.Weight); {
		case wa > wb:
			return -1
		case wb > wa:
			return 1
		}
		return 0
	})
	if topK > 0 && topK < len(attrs) {
		attrs = attrs[:topK]
	}
	return attrs
}

// solve performs in-place Gaussian elimination with partial pivoting and
// writes the solution into x, which has len(b) slots; back-substitution
// assigns every one.
func solve(A [][]float64, b, x []float64) {
	n := len(b)
	for col := 0; col < n; col++ {
		// Pivot.
		p := col
		for r := col + 1; r < n; r++ {
			if math.Abs(A[r][col]) > math.Abs(A[p][col]) {
				p = r
			}
		}
		A[col], A[p] = A[p], A[col]
		b[col], b[p] = b[p], b[col]
		pv := A[col][col]
		if math.Abs(pv) < 1e-12 {
			continue // singular direction; leave coefficient at 0
		}
		inv := 1 / pv
		for r := col + 1; r < n; r++ {
			f := A[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				A[r][c] -= f * A[col][c]
			}
			b[r] -= f * b[col]
		}
	}
	for r := n - 1; r >= 0; r-- {
		if math.Abs(A[r][r]) < 1e-12 {
			x[r] = 0
			continue
		}
		s := b[r]
		for c := r + 1; c < n; c++ {
			s -= A[r][c] * x[c]
		}
		x[r] = s / A[r][r]
	}
}
