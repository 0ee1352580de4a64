package dep

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/pragma"
)

func analyzeConverted(t *testing.T, src string) *Analysis {
	t.Helper()
	loop, funcs := parseLoop(t, src)
	return AnalyzeLoop(loop, funcs).Convert()
}

// --- Direction/distance vectors over the nest ---------------------------------

func TestNestOuterCarriedFlow(t *testing.T) {
	a := analyze(t, `for (i = 1; i < n; i++) for (j = 0; j < m; j++) a[i][j] = a[i-1][j] + 1;`)
	if a.Parallelizable {
		t.Fatalf("outer-carried flow dependence missed: %v", a.Reasons)
	}
	if len(a.Witnesses) != 1 {
		t.Fatalf("want one witness, got %+v", a.Witnesses)
	}
	w := a.Witnesses[0]
	if w.Array != "a" || w.Kind != "flow" {
		t.Errorf("witness kind: %+v", w)
	}
	if got := strings.Join(w.Vector, ""); got != "<=" {
		t.Errorf("vector = %q, want \"<=\"", got)
	}
	if w.Distance != "(1,0)" {
		t.Errorf("distance = %q, want (1,0)", w.Distance)
	}
	if !w.Source.Write || w.Sink.Write {
		t.Errorf("flow witness must run write -> read: %+v", w)
	}
	if w.Source.Expr != "a[i][j]" || w.Sink.Expr != "a[i - 1][j]" {
		t.Errorf("sites: %+v", w)
	}
}

func TestNestAntiDependenceNormalized(t *testing.T) {
	a := analyze(t, `for (i = 0; i < n; i++) a[i] = a[i+1] * 2;`)
	if a.Parallelizable {
		t.Fatalf("anti dependence missed: %v", a.Reasons)
	}
	w := a.Witnesses[0]
	// Lexicographically positive normalization: the read (earlier iteration)
	// becomes the source, so the kind is anti with a positive distance.
	if w.Kind != "anti" || w.Distance != "(1)" {
		t.Errorf("witness = %+v, want anti distance (1)", w)
	}
	if w.Source.Write || !w.Sink.Write {
		t.Errorf("anti witness must run read -> write: %+v", w)
	}
}

func TestNestInnerOnlyCarriedIsSafe(t *testing.T) {
	// The j-level recurrence is carried by the inner loop; the outer distance
	// is pinned to zero, so the outer loop still parallelizes.
	a := analyze(t, `for (i = 0; i < n; i++) for (j = 1; j < m; j++) a[i][j] = a[i][j-1] + b[i][j];`)
	if !a.Parallelizable {
		t.Fatalf("inner-only dependence should not block the outer loop: %v", a.Reasons)
	}
}

func TestNestDecreasingLoopDependence(t *testing.T) {
	a := analyze(t, `for (i = 9; i >= 1; i--) a[i] = a[i-1];`)
	if a.Parallelizable {
		t.Fatalf("dependence in decreasing loop missed: %v", a.Reasons)
	}
	w := a.Witnesses[0]
	// i descends, so the write to a[i-1] happens after the read: anti, and
	// the normalized distance is one iteration.
	if w.Kind != "anti" || w.Distance != "(1)" {
		t.Errorf("witness = %+v, want anti distance (1)", w)
	}
}

func TestNestSymbolicLowerBoundDistance(t *testing.T) {
	a := analyze(t, `for (i = k; i < k + 8; i++) a[i] = a[i-2];`)
	if a.Parallelizable {
		t.Fatalf("distance-2 flow dependence missed: %v", a.Reasons)
	}
	if w := a.Witnesses[0]; w.Kind != "flow" || w.Distance != "(2)" {
		t.Errorf("witness = %+v, want flow distance (2)", w)
	}
}

// An inner loop reusing the analyzed loop's variable adds a level, not a
// variable: the subscript then involves both levels, so no single-variable
// distance is read off it.
func TestNestReusedOuterVariable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { for (i = 0; i < 8; i++) a[i] = a[i + 1] + 1; }")
	if a.Parallelizable || a.NestDepth != 2 || len(a.Witnesses) != 1 {
		t.Fatalf("parallelizable %v, depth %d, witnesses %v", a.Parallelizable, a.NestDepth, a.Witnesses)
	}
	if w := a.Witnesses[0]; w.Kind != "anti" || w.Distance != "(*,*)" || strings.Join(w.Vector, "") != "**" {
		t.Errorf("witness = %+v, want an anti dependence at (*,*)", w)
	}
}

func TestNestDepthRecorded(t *testing.T) {
	a := analyze(t, `for (i = 0; i < n; i++) for (j = 0; j < m; j++) b[i][j] = 0;`)
	if a.NestDepth != 2 {
		t.Errorf("NestDepth = %d, want 2", a.NestDepth)
	}
}

// --- Trip-count and Banerjee refutations --------------------------------------

func TestTripCountRefutesLongDistance(t *testing.T) {
	// The shift is farther than the loop runs: no iteration pair collides.
	a := analyze(t, `for (i = 0; i < 10; i++) a[i] = a[i+20];`)
	if !a.Parallelizable {
		t.Fatalf("trip-count refutation failed: %v", a.Reasons)
	}
}

func TestTripCountInclusiveBound(t *testing.T) {
	a := analyze(t, `for (i = 0; i <= 9; i++) a[i] = a[i+10];`)
	if !a.Parallelizable {
		t.Fatalf("inclusive-bound refutation failed: %v", a.Reasons)
	}
}

func TestNegativeStepRefutation(t *testing.T) {
	a := analyze(t, `for (i = 9; i >= 0; i--) a[i] = a[i+10];`)
	if !a.Parallelizable {
		t.Fatalf("negative-step refutation failed: %v", a.Reasons)
	}
}

func TestBanerjeeBoundsRefute(t *testing.T) {
	// weak SIV: u - 2t = -100 has no solution with t,u in [0,9].
	a := analyze(t, `for (i = 0; i < 10; i++) a[2*i] = a[i+100];`)
	if !a.Parallelizable {
		t.Fatalf("Banerjee bounds refutation failed: %v", a.Reasons)
	}
}

func TestWeakSIVStillConservative(t *testing.T) {
	// a[2i] = a[i] genuinely collides across iterations (t=1 writes a[2],
	// u=2 reads a[2]); the bounds test must not refute it.
	a := analyze(t, `for (i = 0; i < 10; i++) a[2*i] = a[i];`)
	if a.Parallelizable {
		t.Fatalf("weak SIV collision missed: %v", a.Reasons)
	}
	if len(a.Witnesses) == 0 {
		t.Fatal("refutation must carry a witness")
	}
}

func TestBanerjeePinsOuterMIV(t *testing.T) {
	// Linearized row update with constant stride: 10*i + j only collides at
	// equal outer iterations, so the direction-constrained bounds test pins
	// the outer distance to zero.
	a := analyze(t, `for (i = 0; i < 10; i++) for (j = 0; j < 10; j++) a[10*i + j] = a[10*i + j] + 1.0;`)
	if !a.Parallelizable {
		t.Fatalf("MIV outer pin failed: %v", a.Reasons)
	}
}

func TestDelinearizeSymbolicStride(t *testing.T) {
	// c[i*n + j] with j running exactly [0, n): behaves like c[i][j].
	a := analyze(t, `for (i = 0; i < m; i++) for (j = 0; j < n; j++) c[i*n + j] = c[i*n + j] * 2.0;`)
	if !a.Parallelizable {
		t.Fatalf("delinearization failed: %v", a.Reasons)
	}
}

func TestDelinearizeRequiresMatchingRange(t *testing.T) {
	// The fast variable overruns the stride (j goes to n+1), so rows overlap
	// and the access must stay refuted.
	a := analyze(t, `for (i = 0; i < m; i++) for (j = 0; j < n + 1; j++) c[i*n + j] = c[i*n + j] * 2.0;`)
	if a.Parallelizable {
		t.Fatalf("overlapping linearized rows wrongly parallelized: %v", a.Reasons)
	}
}

// --- Privatization and array reductions ---------------------------------------

const privSrc = `
for (i = 0; i < n; i++) {
    for (j = 0; j < 8; j++) t[j] = a[i][j] * 2.0;
    for (j = 0; j < 8; j++) b[i][j] = t[j] + 1.0;
}`

func TestArrayPrivatization(t *testing.T) {
	// Conversions off: the scratch array refutes the loop.
	base := analyze(t, privSrc)
	if base.Parallelizable {
		t.Fatalf("scratch array must refute without privatization: %v", base.Reasons)
	}
	// Conversions on: t becomes private and the loop parallelizes.
	a := analyzeConverted(t, privSrc)
	if !a.Parallelizable {
		t.Fatalf("privatization failed: %v", a.Reasons)
	}
	found := false
	for _, p := range a.Private {
		if p == "t" {
			found = true
		}
	}
	if !found {
		t.Errorf("t missing from Private: %v", a.Private)
	}
	if len(a.Converted) != 1 || a.Converted[0] != "t" {
		t.Errorf("Converted = %v, want [t]", a.Converted)
	}
	d := a.Directive()
	if d == nil || !strings.Contains(d.String(), "private(") {
		t.Errorf("directive missing private clause: %v", d)
	}
}

func TestPrivatizationRejectsConflictingInnerHeaders(t *testing.T) {
	// The second sibling loop reads t[4..7], which the first never wrote this
	// iteration: values leak across outer iterations, so no privatization.
	src := `
for (i = 0; i < n; i++) {
    for (j = 0; j < 4; j++) t[j] = a[i][j];
    for (j = 0; j < 8; j++) b[i][j] = t[j];
}`
	a := analyzeConverted(t, src)
	if a.Parallelizable {
		t.Fatalf("conflicting inner headers wrongly privatized: %v", a.Reasons)
	}
}

func TestPrivatizationRejectsReadFirst(t *testing.T) {
	src := `
for (i = 0; i < n; i++) {
    for (j = 0; j < 8; j++) b[i][j] = t[j];
    for (j = 0; j < 8; j++) t[j] = a[i][j];
}`
	a := analyzeConverted(t, src)
	if a.Parallelizable {
		t.Fatalf("read-before-write scratch wrongly privatized: %v", a.Reasons)
	}
}

func TestArrayReductionHistogram(t *testing.T) {
	src := `for (i = 0; i < n; i++) hist[b[i]] += 1;`
	base := analyze(t, src)
	if base.Parallelizable {
		t.Fatalf("histogram must refute without reduction recognition: %v", base.Reasons)
	}
	if !strings.Contains(strings.Join(base.Reasons, " "), "non-affine subscript") {
		t.Errorf("reasons: %v", base.Reasons)
	}
	a := analyzeConverted(t, src)
	if !a.Parallelizable {
		t.Fatalf("array reduction failed: %v", a.Reasons)
	}
	want := pragma.Reduction{Op: "+", Vars: []string{"hist"}}
	found := false
	for _, r := range a.Reductions {
		if r.Op == want.Op && len(r.Vars) == 1 && r.Vars[0] == "hist" {
			found = true
		}
	}
	if !found {
		t.Errorf("Reductions = %v, want +:hist", a.Reductions)
	}
	if len(a.Converted) != 1 || a.Converted[0] != "hist" {
		t.Errorf("Converted = %v, want [hist]", a.Converted)
	}
}

func TestArrayReductionRejectsMixedOps(t *testing.T) {
	src := `
for (i = 0; i < n; i++) {
    hist[b[i]] += 1;
    hist[c[i]] *= 2;
}`
	a := analyzeConverted(t, src)
	if a.Parallelizable {
		t.Fatalf("mixed-operator accumulation wrongly converted: %v", a.Reasons)
	}
}

func TestArrayReductionRejectsOutsideRead(t *testing.T) {
	src := `
for (i = 0; i < n; i++) {
    hist[b[i]] += 1;
    s = s + hist[i];
}`
	a := analyzeConverted(t, src)
	if a.Parallelizable {
		t.Fatalf("accumulated array with outside read wrongly converted: %v", a.Reasons)
	}
}

// --- Witnesses ----------------------------------------------------------------

func TestWitnessPositionsAnchorToCanonicalText(t *testing.T) {
	loop, funcs := parseLoop(t, `for (i = 1; i < n; i++) a[i] = a[i-1] + 1;`)
	a := AnalyzeLoop(loop, funcs)
	if a.Parallelizable || len(a.Witnesses) != 1 {
		t.Fatalf("want one refuting witness, got %+v", a)
	}
	w := a.Witnesses[0]
	if w.Source.Line <= 0 || w.Source.Col <= 0 || w.Sink.Line <= 0 || w.Sink.Col <= 0 {
		t.Fatalf("witness sites missing positions: %+v", w)
	}
	text := cast.Print(loop)
	lines := strings.Split(text, "\n")
	check := func(s Site) {
		if s.Line > len(lines) {
			t.Fatalf("site line %d beyond snippet (%d lines)", s.Line, len(lines))
		}
		at := lines[s.Line-1][s.Col-1:]
		if !strings.HasPrefix(at, s.Expr) {
			t.Errorf("snippet at %d:%d is %q, want prefix %q", s.Line, s.Col, at, s.Expr)
		}
	}
	check(w.Source)
	check(w.Sink)
}

func TestScalarWitness(t *testing.T) {
	a := analyze(t, `for (i = 1; i < n; i++) x = x * a[i] + 1.0;`)
	if a.Parallelizable {
		t.Fatalf("scalar recurrence missed: %v", a.Reasons)
	}
	if len(a.Witnesses) != 1 {
		t.Fatalf("want one witness, got %+v", a.Witnesses)
	}
	w := a.Witnesses[0]
	if w.Array != "x" || w.Kind != "flow" || w.Distance != "(1)" {
		t.Errorf("scalar witness = %+v", w)
	}
}

func TestBailWitnessIsNotConcrete(t *testing.T) {
	a := analyze(t, `for (i = 0; i < n; i++) a[b[i]] = 0;`)
	if a.Parallelizable {
		t.Fatalf("non-affine write missed: %v", a.Reasons)
	}
	if len(a.Witnesses) != 1 || a.Witnesses[0].Kind != "unknown" || a.Witnesses[0].Concrete() {
		t.Errorf("bail witness = %+v", a.Witnesses)
	}
}

func TestWitnessStableAcrossRuns(t *testing.T) {
	src := `for (i = 1; i < n; i++) { a[i] = a[i-1]; c[i] = c[i+2]; }`
	first := analyze(t, src)
	for run := 0; run < 5; run++ {
		again := analyze(t, src)
		if len(again.Witnesses) != len(first.Witnesses) {
			t.Fatalf("witness count changed: %d vs %d", len(again.Witnesses), len(first.Witnesses))
		}
		for i := range first.Witnesses {
			if first.Witnesses[i].String() != again.Witnesses[i].String() {
				t.Fatalf("witness %d changed: %q vs %q", i, first.Witnesses[i], again.Witnesses[i])
			}
		}
	}
}

// --- Conversion as a pass over the plain result --------------------------------

// mixedLoop holds the three fates of a refuted array side by side: buf is
// per-iteration scratch, hist a histogram accumulation, r a true recurrence.
// The race test refutes them in name order — buf, hist, r — and j, k and t
// are scalar privates: three of them, so the plain Private has a spare slot
// that a conversion appending in place would write.
const mixedLoop = `for (i = 1; i < n; i++) {
    for (j = 0; j < m; j++) buf[j] = a[i][j] * 2;
    for (j = 0; j < m; j++) c[i][j] = buf[j] + 1;
    k = key[i];
    t = w[i];
    hist[k] += t;
    %s
}`

const (
	bufCarried  = "array buf carries a loop dependence between accesses (output, distance (*,0))"
	bufPrivate  = "array buf privatized: each iteration writes it before any read"
	histCarried = "array hist carries a loop dependence between accesses (output, distance (*,*))"
	histReduced = "array hist recognized as a reduction(+) accumulation"
	rCarried    = "array r carries a loop dependence between accesses (flow, distance (1,*))"
)

// TestConvertMixedLoop reads a conversion failure where the golden digest
// only reports one: which names land where, and in what order the reasons
// come, plain and converted — the converted view derived from one plain
// analysis that the conversion does not modify.
func TestConvertMixedLoop(t *testing.T) {
	loop, funcs := parseLoop(t, fmt.Sprintf(mixedLoop, "r[i] = r[i - 1] + 1;"))
	plain := AnalyzeLoop(loop, funcs)
	for _, c := range []struct {
		converted                  bool
		rescued, private, reducing []string
		witnesses, reasons         []string
	}{
		{false, nil, []string{"j", "k", "t"}, nil,
			[]string{"buf", "hist", "r"}, []string{bufCarried, histCarried, rCarried}},
		{true, []string{"buf", "hist"}, []string{"j", "k", "t", "buf"}, []string{"hist"},
			[]string{"r"}, []string{bufPrivate, histReduced, rCarried}},
	} {
		got := plain
		if c.converted {
			got = plain.Convert()
		}
		var reducing, witnesses []string
		for _, r := range got.Reductions {
			reducing = append(reducing, r.Vars...)
		}
		for _, w := range got.Witnesses {
			witnesses = append(witnesses, w.Array)
			if w.Source.Line == 0 || w.Sink.Line == 0 {
				t.Errorf("converted %v: witness on %s lost its position: %+v", c.converted, w.Array, w)
			}
		}
		if got.Parallelizable ||
			!slices.Equal(got.Converted, c.rescued) || !slices.Equal(got.Private, c.private) ||
			!slices.Equal(reducing, c.reducing) || !slices.Equal(witnesses, c.witnesses) ||
			!slices.Equal(got.Reasons, c.reasons) {
			t.Errorf("converted %v:\n got converted %v private %v reductions %v witnesses %v\n reasons %q\nwant converted %v private %v reductions %v witnesses %v\n reasons %q",
				c.converted, got.Converted, got.Private, reducing, witnesses, got.Reasons,
				c.rescued, c.private, c.reducing, c.witnesses, c.reasons)
		}
		// Convert of a held analysis is Convert of a fresh pass, and it left
		// the plain analysis as a fresh pass writes it — up to the spare
		// capacity of its slices, which an append through a shared backing
		// array would have filled.
		if held, alone := plain.Convert(), AnalyzeLoop(loop, funcs).Convert(); !reflect.DeepEqual(held, alone) {
			t.Errorf("Convert of a held analysis %+v, of a fresh pass %+v", held, alone)
		}
		fresh := AnalyzeLoop(loop, funcs)
		if !reflect.DeepEqual(plain, fresh) ||
			!slices.Equal(plain.Private[:cap(plain.Private)], fresh.Private[:cap(fresh.Private)]) ||
			!slices.Equal(plain.Reasons[:cap(plain.Reasons)], fresh.Reasons[:cap(fresh.Reasons)]) {
			t.Fatalf("Convert modified the plain analysis: %+v, fresh %+v", plain, fresh)
		}
	}

	// With the recurrence gone the conversions clear the loop, and only then
	// are the clause lists sorted and the verdict reason appended.
	got := analyzeConverted(t, fmt.Sprintf(mixedLoop, ""))
	if !got.Parallelizable || len(got.Witnesses) != 0 || !slices.Equal(got.Private, []string{"buf", "j", "k", "t"}) ||
		!slices.Equal(got.Reasons, []string{bufPrivate, histReduced, "no loop-carried dependences detected"}) {
		t.Errorf("recurrence-free loop converted: %+v", got)
	}
	if one := analyze(t, fmt.Sprintf(mixedLoop, "")); one.Parallelizable {
		t.Errorf("buf and hist still carried in the plain analysis, yet parallelizable: %+v", one)
	}
}

// TestSubscriptArms pins the verdicts of subscripts that go through the
// cast, unary, member and pure-call arms of the nest-wide affine form, and
// through the varying-name test of a symbol: a member or call over a name
// the loop writes varies with the iteration, so its subscript is free.
func TestSubscriptArms(t *testing.T) {
	for _, tc := range []struct {
		body, kind, distance string // kind "" means parallel
	}{
		{body: "a[(int)i] = b[i];"},
		{body: "a[i] = a[-(-i) - 1];", kind: "flow", distance: "(1)"},
		{body: "a[s.k + i] = a[s.k + i] + 1;"},
		{body: "a[p->k + i] = b[i];"},
		{body: "a[abs(k) + i] = a[abs(k) + i] * 2;"},
		{body: "a[+i] = a[i] + 1;"},
		{body: "{ s.k = i; a[s.k] = b[i]; }", kind: "output", distance: "(*)"},
		{body: "{ k = i; a[abs(k)] = b[i]; }", kind: "output", distance: "(*)"},
	} {
		a := analyze(t, "for (i = 0; i < n; i++) "+tc.body)
		if a.Parallelizable != (tc.kind == "") {
			t.Errorf("%s: parallelizable %v: %q", tc.body, a.Parallelizable, a.Reasons)
			continue
		}
		if tc.kind == "" {
			continue
		}
		found := false
		for _, w := range a.Witnesses {
			if w.Array == "a" {
				found = true
				if w.Kind != tc.kind || w.Distance != tc.distance {
					t.Errorf("%s: witness on a is %s %s, want %s %s", tc.body, w.Kind, w.Distance, tc.kind, tc.distance)
				}
			}
		}
		if !found {
			t.Errorf("%s: no witness on a among %+v", tc.body, a.Witnesses)
		}
	}
}
