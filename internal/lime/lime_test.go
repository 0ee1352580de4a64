package lime

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// keywordModel scores by presence of signal tokens, mimicking a classifier
// keyed on "fprintf" (negative) and "sum" (positive).
func keywordModel(tokens []string) float64 {
	z := 0.0
	for _, t := range tokens {
		switch t {
		case "sum":
			z += 2
		case "fprintf", "stderr":
			z -= 2
		}
	}
	return 1 / (1 + math.Exp(-z))
}

func find(attrs []Attribution, token string) (Attribution, bool) {
	for _, a := range attrs {
		if a.Token == token {
			return a, true
		}
	}
	return Attribution{}, false
}

func TestExplainFindsPositiveDriver(t *testing.T) {
	tokens := []string{"for", "(", "i", ")", "sum", "+=", "a"}
	attrs := New(1).ExplainBatch(tokens, batched(keywordModel), 0)
	a, ok := find(attrs, "sum")
	if !ok {
		t.Fatal("sum not attributed")
	}
	if a.Weight <= 0 {
		t.Errorf("sum weight = %g, want positive", a.Weight)
	}
	// "sum" must rank first by |weight|.
	if attrs[0].Token != "sum" {
		t.Errorf("top token = %q, want sum (attrs %v)", attrs[0].Token, attrs[:3])
	}
}

func TestExplainFindsNegativeDrivers(t *testing.T) {
	// The paper's example 2: fprintf/stderr drive the "no pragma" class.
	tokens := []string{"for", "(", "i", ")", "fprintf", "(", "stderr", ")"}
	attrs := New(2).ExplainBatch(tokens, batched(keywordModel), 0)
	fp, ok := find(attrs, "fprintf")
	if !ok || fp.Weight >= 0 {
		t.Errorf("fprintf weight = %+v, want negative", fp)
	}
	st, ok := find(attrs, "stderr")
	if !ok || st.Weight >= 0 {
		t.Errorf("stderr weight = %+v, want negative", st)
	}
	// Neutral tokens should attract much smaller weights.
	neutral, _ := find(attrs, "for")
	if math.Abs(neutral.Weight) > math.Abs(fp.Weight)/2 {
		t.Errorf("neutral weight %g too large vs %g", neutral.Weight, fp.Weight)
	}
}

func TestExplainTopK(t *testing.T) {
	tokens := []string{"a", "b", "sum", "d", "e"}
	attrs := New(3).ExplainBatch(tokens, batched(keywordModel), 2)
	if len(attrs) != 2 {
		t.Fatalf("topK = %d", len(attrs))
	}
}

func TestExplainEmpty(t *testing.T) {
	if attrs := New(1).ExplainBatch(nil, batched(keywordModel), 5); attrs != nil {
		t.Fatal("expected nil for empty input")
	}
}

func TestExplainDeterministic(t *testing.T) {
	tokens := []string{"x", "sum", "y", "fprintf"}
	a1 := New(7).ExplainBatch(tokens, batched(keywordModel), 0)
	a2 := New(7).ExplainBatch(tokens, batched(keywordModel), 0)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatal("explanations differ under equal seeds")
		}
	}
}

func TestExplainConstantModel(t *testing.T) {
	tokens := []string{"a", "b", "c"}
	attrs := New(1).ExplainBatch(tokens, batched(func([]string) float64 { return 0.7 }), 0)
	for _, a := range attrs {
		if math.Abs(a.Weight) > 0.05 {
			t.Errorf("constant model attributed weight %g to %q", a.Weight, a.Token)
		}
	}
}

func TestDuplicateTokensSeparatePositions(t *testing.T) {
	// Position-level features: two "sum" occurrences get separate entries.
	tokens := []string{"sum", "x", "sum"}
	attrs := New(4).ExplainBatch(tokens, batched(keywordModel), 0)
	count := 0
	for _, a := range attrs {
		if a.Token == "sum" {
			count++
			if a.Weight <= 0 {
				t.Errorf("sum at %d has weight %g", a.Index, a.Weight)
			}
		}
	}
	if count != 2 {
		t.Fatalf("sum positions = %d", count)
	}
}

// solved is solve into a slice of its own, first filled with NaN as a
// pooled workspace's stale solution would be: every slot must be assigned.
func solved(A [][]float64, b []float64) []float64 {
	x := make([]float64, len(b))
	for i := range x {
		x[i] = math.NaN()
	}
	solve(A, b, x)
	return x
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	A := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x := solved(A, b)
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	A := [][]float64{{0, 1}, {1, 0}}
	b := []float64{2, 3}
	x := solved(A, b)
	if math.Abs(x[0]-3) > 1e-9 || math.Abs(x[1]-2) > 1e-9 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveSingularSafe(t *testing.T) {
	A := [][]float64{{1, 1}, {1, 1}}
	b := []float64{2, 2}
	x := solved(A, b)
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("x = %v", x)
		}
	}
}

func TestWeightedRidgeRecoversLinear(t *testing.T) {
	// y = 1 + 2*f1 - f2 exactly; ridge with tiny lambda recovers it. The
	// design rows {1,0,0}, {1,1,0}, {1,0,1}, {1,1,1} as kept lists.
	v := Variants{kept: []int32{0, 1, 0, 1}, off: []int32{0, 0, 1, 2, 4}}
	ws := &workspace{w: []float64{1, 1, 1, 1}, y: []float64{1, 3, 0, 2}}
	beta := ws.fit(v, 2, 1e-9)
	want := []float64{1, 2, -1}
	for i := range want {
		if math.Abs(beta[i]-want[i]) > 1e-4 {
			t.Fatalf("beta = %v", beta)
		}
	}
}

// explainReference is ExplainBatch as it stood before the workspace: a
// float mask row, a removed-set map and a token slice per sample, a dense
// design matrix and a fresh generator per call. The differential test holds
// the core to its output bit for bit.
func explainReference(e *Explainer, tokens []string, predict func([][]string) []float64, topK int) []Attribution {
	T := len(tokens)
	if T == 0 {
		return nil
	}
	nSamples := e.Samples
	rng := rand.New(rand.NewSource(e.Seed))

	// Design matrix with intercept column 0.
	X := make([][]float64, 0, nSamples+1)
	w := make([]float64, 0, nSamples+1)
	variants := make([][]string, 0, nSamples+1)

	// Include the unperturbed instance with maximal weight.
	full := make([]float64, T+1)
	for i := range full {
		full[i] = 1
	}
	X = append(X, full)
	variants = append(variants, tokens)
	w = append(w, 1)

	for s := 0; s < nSamples; s++ {
		mask := make([]float64, T+1)
		mask[0] = 1 // intercept
		kept := 0
		// Sample the number of removals uniformly, then the positions.
		nRemove := 1 + rng.Intn(T)
		removed := map[int]bool{}
		for len(removed) < nRemove {
			removed[rng.Intn(T)] = true
		}
		variant := make([]string, 0, T-nRemove)
		for i, tok := range tokens {
			if removed[i] {
				continue
			}
			mask[i+1] = 1
			kept++
			variant = append(variant, tok)
		}
		if kept == 0 {
			continue
		}
		X = append(X, mask)
		variants = append(variants, variant)
		d := 1 - math.Sqrt(float64(kept)/float64(T))
		w = append(w, math.Exp(-(d*d)/(KernelWidth*KernelWidth)))
	}

	y := predict(variants)
	beta := weightedRidgeReference(X, y, w, Ridge)
	attrs := make([]Attribution, T)
	for i := 0; i < T; i++ {
		attrs[i] = Attribution{Index: i, Token: tokens[i], Weight: beta[i+1]}
	}
	sort.Slice(attrs, func(a, b int) bool {
		return math.Abs(attrs[a].Weight) > math.Abs(attrs[b].Weight)
	})
	if topK > 0 && topK < len(attrs) {
		attrs = attrs[:topK]
	}
	return attrs
}

// weightedRidgeReference solves (XᵀWX + λI)β = XᵀWy over the dense design
// matrix; the intercept (column 0) is not regularized.
func weightedRidgeReference(X [][]float64, y, w []float64, lambda float64) []float64 {
	d := len(X[0])
	A := make([][]float64, d)
	b := make([]float64, d)
	for i := range A {
		A[i] = make([]float64, d)
	}
	for s, row := range X {
		ws := w[s]
		for i := 0; i < d; i++ {
			if row[i] == 0 {
				continue
			}
			wi := ws * row[i]
			b[i] += wi * y[s]
			for j := i; j < d; j++ {
				A[i][j] += wi * row[j]
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
	return solved(A, b)
}

// testModels are deterministic functions of the token text, one per shape
// of y the fit meets: graded probabilities, the advisor's hard labels, and
// a constant zero that makes every weight tie at |0|, so the ranking's
// order under ties is compared too.
var testModels = []struct {
	name  string
	score func([]string) float64
}{
	{"prob", func(ts []string) float64 {
		z := 0.0
		for i, t := range ts {
			z += float64(int(t[len(t)-1])%7-3) * (1 + float64(i%3))
		}
		return 1 / (1 + math.Exp(-z/4))
	}},
	{"label", func(ts []string) float64 {
		n := 0
		for _, t := range ts {
			n += int(t[len(t)-1])
		}
		return float64(n % 2)
	}},
	{"zero", func([]string) float64 { return 0 }},
}

func batched(score func([]string) float64) func([][]string) []float64 {
	return func(batch [][]string) []float64 {
		out := make([]float64, len(batch))
		for i, ts := range batch {
			out[i] = score(ts)
		}
		return out
	}
}

func randomTokens(rng *rand.Rand, T int) []string {
	toks := make([]string, T)
	for i := range toks {
		toks[i] = fmt.Sprintf("t%d", rng.Intn(40)) // repeats, as in real loops
	}
	return toks
}

// TestExplainMatchesReference is the bit-identity contract: over random
// token sequences, seeds, sample counts and topK, both views of the core
// return exactly the reference's attributions — order, tokens and every
// bit of every weight.
func TestExplainMatchesReference(t *testing.T) {
	const maxLen = 110 // core.DefaultMaxLen, the longest input the advisor explains
	rng := rand.New(rand.NewSource(20))
	lengths := []int{1, 2, 3, maxLen}
	for len(lengths) < 100 {
		lengths = append(lengths, 1+rng.Intn(60))
	}
	skipped := 0
	for trial, T := range lengths {
		tokens := randomTokens(rng, T)
		for _, samples := range []int{1, 120, 480} {
			m := testModels[(trial+samples)%len(testModels)]
			e := New(rng.Int63())
			e.Samples = samples
			topK := 0
			if trial%3 == 1 {
				topK = 1 + rng.Intn(T+2) // below, at and above T
			}
			want := explainReference(e, tokens, batched(m.score), topK)
			calls := 0
			views := map[string][]Attribution{
				"ExplainBatch": e.ExplainBatch(tokens, batched(m.score), topK),
				"ExplainVariants": e.ExplainVariants(tokens, func(v Variants, y []float64) {
					calls++
					skipped += samples + 1 - v.Len()
					ts := make([]string, 0, T)
					for i := range y {
						ts = ts[:0]
						for _, p := range v.Kept(i) {
							ts = append(ts, tokens[p])
						}
						y[i] = m.score(ts)
					}
				}, topK),
			}
			if calls != 1 {
				t.Fatalf("predict called %d times, want exactly once", calls)
			}
			for name, got := range views {
				if len(got) != len(want) {
					t.Fatalf("T=%d samples=%d topK=%d %s/%s: %d attributions, want %d",
						T, samples, topK, name, m.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("T=%d samples=%d topK=%d %s/%s: attribution %d = %+v, want %+v",
							T, samples, topK, name, m.name, i, got[i], want[i])
					}
				}
			}
		}
	}
	// T = 1 removes the only token in every sample, and short inputs do so
	// often: those samples are dropped, not sent to the model.
	if skipped == 0 {
		t.Error("no trial drew a sample with every token removed")
	}
}

// TestExplainAllocs gates the workspace: once it is warm an explanation
// allocates for its result alone (the string view also for the variants it
// hands out), and that count does not move with the sample count. It reads
// 1 and 3; 2 and 4 while the solved coefficients were a slice of their own.
func TestExplainAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	tokens := randomTokens(rand.New(rand.NewSource(1)), 40)
	scores := make([]float64, 481)
	views := []struct {
		name    string
		ceiling float64
		explain func(e *Explainer)
	}{
		{"ExplainVariants", 4, func(e *Explainer) {
			e.ExplainVariants(tokens, func(v Variants, y []float64) {
				for i := range y {
					y[i] = float64(len(v.Kept(i)) % 2)
				}
			}, 0)
		}},
		{"ExplainBatch", 8, func(e *Explainer) {
			e.ExplainBatch(tokens, func(batch [][]string) []float64 { return scores[:len(batch)] }, 0)
		}},
	}
	for _, view := range views {
		var at [2]float64
		for i, samples := range []int{120, 480} {
			e := New(7)
			e.Samples = samples
			at[i] = testing.AllocsPerRun(10, func() { view.explain(e) })
		}
		t.Logf("%s: %.0f allocations per explanation at 120 samples, %.0f at 480", view.name, at[0], at[1])
		if at[0] != at[1] {
			t.Errorf("%s: allocations grow with the sample count: %.0f at 120, %.0f at 480", view.name, at[0], at[1])
		}
		if at[1] > view.ceiling {
			t.Errorf("%s: %.0f allocations per explanation, want at most %.0f", view.name, at[1], view.ceiling)
		}
	}
}

func BenchmarkExplain(b *testing.B) {
	tokens := make([]string, 40)
	for i := range tokens {
		tokens[i] = "tok"
	}
	tokens[5] = "sum"
	e := New(1)
	e.Samples = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.ExplainBatch(tokens, batched(keywordModel), 10)
	}
}
