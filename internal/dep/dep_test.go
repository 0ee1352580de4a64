package dep

import (
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/cparse"
)

// parseLoop parses source and returns its first for-loop plus any function
// definitions found (bodies for side-effect analysis).
func parseLoop(t *testing.T, src string) (*cast.For, map[string]*cast.FuncDef) {
	t.Helper()
	f, err := cparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	funcs := map[string]*cast.FuncDef{}
	var loop *cast.For
	for _, it := range f.Items {
		if fd, ok := it.(*cast.FuncDef); ok {
			funcs[fd.Name] = fd
			continue
		}
		cast.Walk(it, func(n cast.Node) bool {
			if l, ok := n.(*cast.For); ok && loop == nil {
				loop = l
				return false
			}
			return true
		})
	}
	if loop == nil {
		t.Fatalf("no loop in %q", src)
	}
	return loop, funcs
}

func analyze(t *testing.T, src string) *Analysis {
	t.Helper()
	loop, funcs := parseLoop(t, src)
	return AnalyzeLoop(loop, funcs)
}

func TestParallelizableMap(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[i] = b[i] + c[i];")
	if !a.Parallelizable {
		t.Fatalf("not parallelizable: %v", a.Reasons)
	}
	if len(a.Private) != 0 || len(a.Reductions) != 0 {
		t.Errorf("unexpected clauses: %+v", a)
	}
}

func TestInitLoop(t *testing.T) {
	a := analyze(t, "for (i = 0; i <= N; i++) A[i] = i;")
	if !a.Parallelizable {
		t.Fatalf("not parallelizable: %v", a.Reasons)
	}
}

func TestRecurrenceNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 1; i < n; i++) a[i] = a[i-1] + 1;")
	if a.Parallelizable {
		t.Fatal("recurrence misclassified as parallel")
	}
	if !reasonContains(a, "carries a loop dependence") {
		t.Errorf("reasons = %v", a.Reasons)
	}
}

func TestForwardShiftNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n - 1; i++) a[i] = a[i+1] * 2;")
	if a.Parallelizable {
		t.Fatal("anti-dependent shift misclassified as parallel")
	}
}

func TestDisjointShiftSafe(t *testing.T) {
	// Writes a[2i], reads a[2i+1]: distance test non-integer → independent.
	a := analyze(t, "for (i = 0; i < n; i++) a[2*i] = a[2*i+1];")
	if !a.Parallelizable {
		t.Fatalf("disjoint strided access misclassified: %v", a.Reasons)
	}
}

func TestReductionSum(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) sum += x[i] * y[i];")
	if !a.Parallelizable {
		t.Fatalf("not parallelizable: %v", a.Reasons)
	}
	if len(a.Reductions) != 1 || a.Reductions[0].Op != "+" || a.Reductions[0].Vars[0] != "sum" {
		t.Errorf("reductions = %+v", a.Reductions)
	}
}

func TestReductionExplicitForm(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) prod = prod * a[i];")
	if !a.Parallelizable || len(a.Reductions) != 1 || a.Reductions[0].Op != "*" {
		t.Fatalf("a = %+v (%v)", a.Reductions, a.Reasons)
	}
	a = analyze(t, "for (i = 0; i < n; i++) s = a[i] + s;")
	if !a.Parallelizable || len(a.Reductions) != 1 || a.Reductions[0].Op != "+" {
		t.Fatalf("commuted form: %+v (%v)", a.Reductions, a.Reasons)
	}
}

func TestReductionMax(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) m = fmax(m, v[i]);")
	if !a.Parallelizable || len(a.Reductions) != 1 || a.Reductions[0].Op != "max" {
		t.Fatalf("a = %+v (%v)", a.Reductions, a.Reasons)
	}
}

func TestNonAssociativeRecurrence(t *testing.T) {
	// s = s * c + b[i] reads s inside a non-reduction shape: carried.
	a := analyze(t, "for (i = 0; i < n; i++) s = s * c + b[i];")
	if a.Parallelizable {
		t.Fatal("horner recurrence misclassified as parallel")
	}
}

func TestReductionVariableReadElsewhere(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { sum += a[i]; b[i] = sum; }")
	if a.Parallelizable {
		t.Fatal("prefix-sum usage misclassified as parallel")
	}
}

func TestPrivateScalar(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t + 1; }")
	if !a.Parallelizable {
		t.Fatalf("not parallelizable: %v", a.Reasons)
	}
	if len(a.Private) != 1 || a.Private[0] != "t" {
		t.Errorf("private = %v", a.Private)
	}
}

func TestBodyLocalDeclNeedsNoClause(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { double t = a[i] * 2; b[i] = t + 1; }")
	if !a.Parallelizable {
		t.Fatalf("not parallelizable: %v", a.Reasons)
	}
	if len(a.Private) != 0 {
		t.Errorf("body-local got a clause: %v", a.Private)
	}
}

func TestScalarReadBeforeWriteCarried(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { b[i] = t; t = a[i]; }")
	if a.Parallelizable {
		t.Fatal("read-before-write scalar misclassified")
	}
}

func TestInnerLoopVarPrivate(t *testing.T) {
	src := "for (i = 0; i < n; i++) for (j = 0; j < n; j++) x[i] = x[i] + A[i][j] * y[j];"
	a := analyze(t, src)
	if !a.Parallelizable {
		t.Fatalf("matvec not parallelizable: %v", a.Reasons)
	}
	if len(a.Private) != 1 || a.Private[0] != "j" {
		t.Errorf("private = %v", a.Private)
	}
}

func TestInnerLoopDeclNoPrivate(t *testing.T) {
	src := "for (i = 0; i < n; i++) for (int j = 0; j < n; j++) c[i][j] = a[i][j] + b[i][j];"
	a := analyze(t, src)
	if !a.Parallelizable {
		t.Fatalf("not parallelizable: %v", a.Reasons)
	}
	if len(a.Private) != 0 {
		t.Errorf("private = %v", a.Private)
	}
}

func TestMatMulPrivate(t *testing.T) {
	src := "for (i = 0; i < n; i++) for (j = 0; j < n; j++) { s = 0; for (k = 0; k < n; k++) s += A[i][k] * B[k][j]; C[i][j] = s; }"
	a := analyze(t, src)
	if !a.Parallelizable {
		t.Fatalf("matmul not parallelizable: %v", a.Reasons)
	}
	want := map[string]bool{"j": true, "k": true, "s": true}
	for _, p := range a.Private {
		if !want[p] {
			t.Errorf("unexpected private %q", p)
		}
		delete(want, p)
	}
	if len(want) != 0 {
		t.Errorf("missing privates: %v (got %v)", want, a.Private)
	}
}

func TestIONotParallelizable(t *testing.T) {
	a := analyze(t, `for (i = 0; i < n; i++) { fprintf(stderr, "%0.2lf ", x[i]); }`)
	if a.Parallelizable {
		t.Fatal("I/O loop misclassified")
	}
	if !a.HasIO {
		t.Error("HasIO not set")
	}
}

func TestRandNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[i] = rand();")
	if a.Parallelizable || !a.HasIO {
		t.Fatal("rand() loop misclassified")
	}
}

func TestBreakNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { if (a[i] < 0) break; b[i] = a[i]; }")
	if a.Parallelizable {
		t.Fatal("early-exit loop misclassified")
	}
}

func TestContinueIsFine(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { if (a[i] < 0) continue; b[i] = a[i]; }")
	if !a.Parallelizable {
		t.Fatalf("continue should be fine: %v", a.Reasons)
	}
}

func TestLoopVarMutationNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { a[i] = 0; i = i + a[i]; }")
	if a.Parallelizable {
		t.Fatal("loop-var mutation misclassified")
	}
}

func TestIndirectWriteNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[idx[i]] = b[i];")
	if a.Parallelizable {
		t.Fatal("indirect write misclassified")
	}
}

func TestIndirectReadIsFine(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) b[i] = a[idx[i]];")
	if !a.Parallelizable {
		t.Fatalf("gather should be fine: %v", a.Reasons)
	}
}

func TestPointerWriteNotParallelizable(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { *p = i; }")
	if a.Parallelizable {
		t.Fatal("pointer write misclassified")
	}
}

func TestUnknownCallConservative(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[i] = mystery(i);")
	if a.Parallelizable {
		t.Fatal("unknown call misclassified")
	}
	if len(a.UnknownCalls) != 1 || a.UnknownCalls[0] != "mystery" {
		t.Errorf("unknown calls = %v", a.UnknownCalls)
	}
}

func TestKnownPureBodyAllowed(t *testing.T) {
	src := `double square(double x) { return x * x; }
for (i = 0; i < n; i++) a[i] = square(b[i]);`
	a := analyze(t, src)
	if !a.Parallelizable {
		t.Fatalf("pure user function blocked: %v", a.Reasons)
	}
}

func TestGlobalWritingBodyBlocked(t *testing.T) {
	src := `void bump(int i) { counter = counter + i; }
for (i = 0; i < n; i++) bump(i);`
	a := analyze(t, src)
	if a.Parallelizable {
		t.Fatal("global-writing callee misclassified")
	}
}

func TestIOBodyBlocked(t *testing.T) {
	src := `void show(int i) { printf("%d", i); }
for (i = 0; i < n; i++) show(i);`
	a := analyze(t, src)
	if a.Parallelizable || !a.HasIO {
		t.Fatal("IO callee misclassified")
	}
}

func TestMathCallsAllowed(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) y[i] = sin(x[i]) + sqrt(fabs(x[i]));")
	if !a.Parallelizable {
		t.Fatalf("math calls blocked: %v", a.Reasons)
	}
}

func TestUnbalancedDetection(t *testing.T) {
	src := `int MoreCalc(int i) { return i % 3; }
void Calc(int i) { work[i] = work[i] * 2; }
for (i = 0; i <= N; i++) if (MoreCalc(i)) Calc(i);`
	loop, funcs := parseLoop(t, src)
	a := AnalyzeLoop(loop, funcs)
	if !a.Unbalanced {
		t.Error("unbalanced guard not detected")
	}
}

func TestDirectiveGeneration(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { for (j = 0; j < m; j++) s += A[i][j]; }")
	// s += across both loops: reduction; j private.
	if !a.Parallelizable {
		t.Fatalf("reasons: %v", a.Reasons)
	}
	d := a.Directive()
	if d == nil {
		t.Fatal("nil directive")
	}
	str := d.String()
	if !strings.Contains(str, "private(j)") || !strings.Contains(str, "reduction(+:s)") {
		t.Errorf("directive = %q", str)
	}
}

func TestDirectiveNilWhenSerial(t *testing.T) {
	a := analyze(t, "for (i = 1; i < n; i++) a[i] = a[i-1];")
	if a.Directive() != nil {
		t.Error("directive for serial loop")
	}
}

func TestTripCount(t *testing.T) {
	cases := []struct {
		src  string
		want int64
	}{
		{"for (i = 0; i < 10; i++) a[i] = 0;", 10},
		{"for (i = 0; i <= 10; i++) a[i] = 0;", 11},
		{"for (i = 0; i < 10; i += 3) a[i] = 0;", 4},
		{"for (i = 10; i > 0; i--) a[i] = 0;", 10},
		{"for (i = 0; i < n; i++) a[i] = 0;", -1},
		{"for (i = 5; i < 5; i++) a[i] = 0;", 0},
	}
	for _, c := range cases {
		loop, _ := parseLoop(t, c.src)
		h := ParseHeader(loop)
		if !h.OK {
			t.Errorf("%q: header not OK", c.src)
			continue
		}
		if got := h.TripCount(); got != c.want {
			t.Errorf("%q: trip = %d want %d", c.src, got, c.want)
		}
	}
}

func TestHeaderRejectsNonAffine(t *testing.T) {
	for _, src := range []string{
		"for (i = 0; a[i] < 10; i++) x[i] = 0;",
		"for (i = 0; i < n; i *= 2) x[i] = 0;",
		"for (p = head; p; p = next(p)) visit(p);",
	} {
		loop, _ := parseLoop(t, src)
		if h := ParseHeader(loop); h.OK {
			t.Errorf("%q: header accepted", src)
		}
	}
}

func TestHeaderForms(t *testing.T) {
	for _, src := range []string{
		"for (i = 0; i < n; i++) a[i] = 0;",
		"for (i = 0; i < n; ++i) a[i] = 0;",
		"for (int i = 0; i < n; i++) a[i] = 0;",
		"for (i = n; i > 0; i--) a[i] = 0;",
		"for (i = 0; i < n; i += 2) a[i] = 0;",
		"for (i = 0; i < n; i = i + 1) a[i] = 0;",
		"for (i = 0; n > i; i++) a[i] = 0;",
	} {
		loop, _ := parseLoop(t, src)
		if h := ParseHeader(loop); !h.OK {
			t.Errorf("%q: header rejected", src)
		}
	}
}

// A step literal may carry an integer suffix in every spelling of the step.
func TestHeaderSuffixedStep(t *testing.T) {
	for _, c := range []struct {
		post string
		step int64
	}{
		{"i += 2", 2},
		{"i += 2u", 2},
		{"i += 1L", 1},
		{"i -= 4UL", -4},
		{"i = i + 2u", 2},
	} {
		loop, _ := parseLoop(t, "for (i = 0; i < n; "+c.post+") a[i] = 0;")
		if h := ParseHeader(loop); !h.OK || h.Step != c.step {
			t.Errorf("%s: OK = %v, step = %d; want step %d", c.post, h.OK, h.Step, c.step)
		}
	}
	// The analysis keeps its verdict: a suffix is not a reason to bail out.
	if a := analyze(t, "for (i = 0; i < n; i += 2u) a[i] = b[i];"); !a.Parallelizable {
		t.Errorf("suffixed step not parallelizable: %v", a.Reasons)
	}
}

func TestStructMemberLoop(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) image->colormap[i].opacity = (IndexPacket) i;")
	if !a.Parallelizable {
		t.Fatalf("struct member loop blocked: %v", a.Reasons)
	}
}

func TestStencilReadOtherArray(t *testing.T) {
	a := analyze(t, "for (i = 1; i < n - 1; i++) out[i] = (in[i-1] + in[i] + in[i+1]) / 3.0;")
	if !a.Parallelizable {
		t.Fatalf("stencil blocked: %v", a.Reasons)
	}
}

func TestInPlaceStencilBlocked(t *testing.T) {
	a := analyze(t, "for (i = 1; i < n - 1; i++) a[i] = (a[i-1] + a[i+1]) / 2.0;")
	if a.Parallelizable {
		t.Fatal("in-place stencil misclassified")
	}
}

func TestLoopInvariantWriteBlocked(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[0] = a[0] + b[i];")
	if a.Parallelizable {
		t.Fatal("loop-invariant cell write misclassified")
	}
}

func TestSymbolicOffsetSameSymbol(t *testing.T) {
	// a[i+off] written, a[i+off] read: distance 0 → fine.
	a := analyze(t, "for (i = 0; i < n; i++) a[i + off] = a[i + off] * 2;")
	if !a.Parallelizable {
		t.Fatalf("same symbolic offset blocked: %v", a.Reasons)
	}
}

func TestDifferentSymbolicOffsetsBlocked(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[i + p] = a[i + q];")
	if a.Parallelizable {
		t.Fatal("differing symbolic offsets misclassified")
	}
}

func reasonContains(a *Analysis, sub string) bool {
	for _, r := range a.Reasons {
		if strings.Contains(r, sub) {
			return true
		}
	}
	return false
}

func TestSideEffectsPure(t *testing.T) {
	src := `double f(double x) { double y = x * 2; return y + 1; }`
	_, funcs := parseLoopSrcOnlyFuncs(t, src)
	e := SideEffects(funcs["f"], funcs)
	if !e.Pure() {
		t.Errorf("effects = %+v", e)
	}
}

func TestSideEffectsPointerParam(t *testing.T) {
	src := `void fill(double *v, int n) { for (int i = 0; i < n; i++) v[i] = 0; }`
	_, funcs := parseLoopSrcOnlyFuncs(t, src)
	e := SideEffects(funcs["fill"], funcs)
	if !e.WritesPointerParams || e.WritesGlobals {
		t.Errorf("effects = %+v", e)
	}
}

func TestSideEffectsGlobal(t *testing.T) {
	src := `void g(int i) { total += i; }`
	_, funcs := parseLoopSrcOnlyFuncs(t, src)
	e := SideEffects(funcs["g"], funcs)
	if !e.WritesGlobals {
		t.Errorf("effects = %+v", e)
	}
}

func TestSideEffectsTransitive(t *testing.T) {
	src := `void inner(int i) { printf("%d", i); }
void outer(int i) { inner(i); }`
	_, funcs := parseLoopSrcOnlyFuncs(t, src)
	e := SideEffects(funcs["outer"], funcs)
	if !e.HasIO {
		t.Errorf("effects = %+v", e)
	}
}

func TestSideEffectsRecursion(t *testing.T) {
	src := `int fact(int n) { if (n < 2) return 1; return n * fact(n - 1); }`
	_, funcs := parseLoopSrcOnlyFuncs(t, src)
	e := SideEffects(funcs["fact"], funcs)
	if !e.Pure() {
		t.Errorf("effects = %+v", e)
	}
}

// parseLoopSrcOnlyFuncs parses source that contains only functions.
func parseLoopSrcOnlyFuncs(t *testing.T, src string) (*cast.File, map[string]*cast.FuncDef) {
	t.Helper()
	f, err := cparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	funcs := map[string]*cast.FuncDef{}
	cast.Walk(f, func(n cast.Node) bool {
		if fd, ok := n.(*cast.FuncDef); ok {
			funcs[fd.Name] = fd
		}
		return true
	})
	return f, funcs
}

func TestAffineForms(t *testing.T) {
	parse := func(s string) cast.Expr {
		f, err := cparse.Parse("x = " + s + ";")
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return f.Items[0].(*cast.ExprStmt).X.(*cast.Assign).R
	}
	cases := []struct {
		expr     string
		coef     int64
		constant int64
		ok       bool
	}{
		{"i", 1, 0, true},
		{"i + 1", 1, 1, true},
		{"2 * i + 3", 2, 3, true},
		{"i * 4 - 1", 4, -1, true},
		{"-i", -1, 0, true},
		{"3 - i", -1, 3, true},
		{"i * i", 0, 0, false},
		{"a[i]", 0, 0, false},
		{"i / 2", 0, 0, false},
		{"(i + 1) * 2", 2, 2, true},
	}
	for _, c := range cases {
		a := ToAffine(parse(c.expr), "i")
		if a.OK != c.ok {
			t.Errorf("%q: OK = %v want %v", c.expr, a.OK, c.ok)
			continue
		}
		if c.ok && (a.Coef != c.coef || a.Const != c.constant) {
			t.Errorf("%q: got %d*i+%d want %d*i+%d", c.expr, a.Coef, a.Const, c.coef, c.constant)
		}
	}
}
