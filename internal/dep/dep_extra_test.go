package dep

import (
	"slices"
	"testing"
)

// Additional edge-case coverage for the collector and the affine algebra.

func TestWhileInsideForBody(t *testing.T) {
	// A while-loop inside the body reads its condition; the scalar it
	// decrements carries a dependence across outer iterations.
	a := analyze(t, "for (i = 0; i < n; i++) { while (budget > 0) budget--; out[i] = 1; }")
	if a.Parallelizable {
		t.Fatal("shared countdown misclassified")
	}
}

func TestDoWhileInsideForBody(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { do { x[i] = x[i] + 1; } while (x[i] < lim[i]); }")
	if !a.Parallelizable {
		t.Fatalf("per-element do-while blocked: %v", a.Reasons)
	}
}

func TestTernaryAccess(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) b[i] = a[i] > 0 ? a[i] : -a[i];")
	if !a.Parallelizable {
		t.Fatalf("ternary map blocked: %v", a.Reasons)
	}
}

func TestCommaExpressionInBody(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { b[i] = (x0 = a[i], x0 * 2); }")
	if !a.Parallelizable {
		t.Fatalf("comma-assign temp blocked: %v", a.Reasons)
	}
	if len(a.Private) != 1 || a.Private[0] != "x0" {
		t.Errorf("private = %v", a.Private)
	}
}

func TestAddressOfBlocks(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) use(&buf[i]);")
	if a.Parallelizable {
		t.Fatal("address-of escaped analysis")
	}
}

func TestCompoundArrayUpdateSameIndex(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) a[i] += b[i];")
	if !a.Parallelizable {
		t.Fatalf("a[i] += b[i] blocked: %v", a.Reasons)
	}
}

func TestCompoundScalarNonReduction(t *testing.T) {
	// x /= e is not an OpenMP reduction operator: carried.
	a := analyze(t, "for (i = 0; i < n; i++) x = x / a[i];")
	if a.Parallelizable {
		t.Fatal("division recurrence misclassified")
	}
}

func TestMultipleReductionsSameOp(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { s1 += a[i]; s2 += b[i]; }")
	if !a.Parallelizable || len(a.Reductions) != 2 {
		t.Fatalf("a = %+v (%v)", a.Reductions, a.Reasons)
	}
}

func TestMixedAccumOpsCarried(t *testing.T) {
	// Same scalar accumulated with two different operators: not a single
	// reduction; conservatively carried.
	a := analyze(t, "for (i = 0; i < n; i++) { s += a[i]; s *= b[i]; }")
	if a.Parallelizable {
		t.Fatal("mixed-operator accumulation misclassified")
	}
}

func TestReductionSubtraction(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) s -= a[i];")
	if !a.Parallelizable || len(a.Reductions) != 1 || a.Reductions[0].Op != "-" {
		t.Fatalf("a = %+v (%v)", a.Reductions, a.Reasons)
	}
}

func TestMemberWriteLoopInvariantBlocked(t *testing.T) {
	// s->total written every iteration without a subscript: output dep.
	a := analyze(t, "for (i = 0; i < n; i++) s->total = a[i];")
	if a.Parallelizable {
		t.Fatal("loop-invariant member write misclassified")
	}
}

func TestConditionalPlainWriteNotPrivate(t *testing.T) {
	a := analyze(t, "for (i = 0; i < n; i++) { if (a[i] > 0) t = a[i]; b[i] = t; }")
	if a.Parallelizable {
		t.Fatal("conditionally-defined scalar misclassified as private")
	}
}

func TestPolybenchBoundSymbolic(t *testing.T) {
	a := analyze(t, "for (i = 0; i < POLYBENCH_LOOP_BOUND(4000, n); i++) x1[i] = x1[i] + y_1[i];")
	if !a.Parallelizable {
		t.Fatalf("polybench bound blocked: %v", a.Reasons)
	}
}

func TestMemberBoundSymbolic(t *testing.T) {
	a := analyze(t, "for (i = 0; i < ((ssize_t) image->colors); i++) out[i] = i;")
	if !a.Parallelizable {
		t.Fatalf("member bound blocked: %v", a.Reasons)
	}
}

func TestAffineOpsAlgebra(t *testing.T) {
	// The operations consume their operands, so each one gets a fresh b.
	a := Affine{Coef: 2, Const: 3, OK: true}
	b := func() Affine {
		return Affine{Coef: 1, Const: -1, SymCoefs: []SymCoef{{Name: "n", K: 2}}, OK: true}
	}
	n2 := []SymCoef{{Name: "n", K: 2}}

	sum := a.add(b())
	if sum.Coef != 3 || sum.Const != 2 || !slices.Equal(sum.SymCoefs, n2) {
		t.Errorf("sum = %+v", sum)
	}
	neg := b().neg()
	if neg.Coef != -1 || !slices.Equal(neg.SymCoefs, []SymCoef{{Name: "n", K: -2}}) {
		t.Errorf("neg = %+v", neg)
	}
	sc := b().scale(3)
	if sc.Coef != 3 || !slices.Equal(sc.SymCoefs, []SymCoef{{Name: "n", K: 6}}) {
		t.Errorf("scale = %+v", sc)
	}
	// Symbol cancellation removes zero coefficients.
	if z := b().add(b().neg()); z.SymCoefs != nil {
		t.Errorf("cancellation left %+v", z.SymCoefs)
	}
	if z := b().scale(0); z.SymCoefs != nil {
		t.Errorf("scaling by 0 left %+v", z.SymCoefs)
	}
	// A sum of two symbolic forms merges them in name order.
	m := Affine{SymCoefs: []SymCoef{{Name: "m", K: 1}, {Name: "p", K: 4}}, OK: true}
	want := []SymCoef{{Name: "m", K: 1}, {Name: "n", K: 2}, {Name: "p", K: 4}}
	if mb := m.add(b()); !slices.Equal(mb.SymCoefs, want) {
		t.Errorf("merge = %+v, want %+v", mb.SymCoefs, want)
	}
	// Propagation of non-affine.
	bad := Affine{}
	if bad.add(a).OK || a.add(bad).OK || bad.neg().OK || bad.scale(2).OK {
		t.Error("non-affine propagated as affine")
	}
}

// TestSameHeader pins when two inner loops over one variable are one nest
// level: the bounds' integer parts and symbolic terms, whatever order the
// symbols were met in, then the step and the inclusivity must all agree.
func TestSameHeader(t *testing.T) {
	header := func(src string) LoopHeader {
		loop, _ := parseLoop(t, src+" a[j] = 0;")
		h := ParseHeader(loop)
		if !h.OK {
			t.Fatalf("%s does not normalize", src)
		}
		return h
	}
	base := header("for (j = 0; j < n + 2 * m; j++)")
	if !sameHeader(base, header("for (j = 0; j < 2 * m + n; j++)")) {
		t.Error("symbol order separates equal headers")
	}
	for _, src := range []string{
		"for (j = 1; j < n + 2 * m; j++)",     // lower constant
		"for (j = k; j < n + 2 * m; j++)",     // lower symbol
		"for (j = 0; j < n + 2 * m + 1; j++)", // upper constant
		"for (j = 0; j < n + m; j++)",         // symbol coefficient
		"for (j = 0; j < n + 2 * k; j++)",     // symbol name
		"for (j = 0; j < n; j++)",             // symbol count
		"for (j = 0; j < n + 2 * m; j += 2)",  // step
		"for (j = 0; j <= n + 2 * m; j++)",    // inclusive bound
	} {
		if other := header(src); sameHeader(base, other) || sameHeader(other, base) {
			t.Errorf("%s reads as the same header as %v", src, base)
		}
	}
}

func TestEffectsPureAccessor(t *testing.T) {
	if (Effects{}).Pure() != true {
		t.Error("zero effects should be pure")
	}
	for _, e := range []Effects{
		{HasIO: true}, {WritesGlobals: true}, {WritesPointerParams: true}, {CallsUnknown: true},
	} {
		if e.Pure() {
			t.Errorf("%+v should be impure", e)
		}
	}
}

// TestIsPureAndIOFunc: a call to a known pure function (sqrt, cos) leaves a
// loop parallel, and a call to an I/O or global-state one (printf, malloc)
// marks it HasIO and serial.
func TestIsPureAndIOFunc(t *testing.T) {
	for _, c := range []struct {
		call string
		io   bool
	}{
		{"y[i] = sqrt(x[i]);", false},
		{"y[i] = cos(x[i]);", false},
		{`printf("%d", i);`, true},
		{"p[i] = malloc(n);", true},
	} {
		a := analyze(t, "for (i = 0; i < n; i++) "+c.call)
		if a.HasIO != c.io || a.Parallelizable == c.io {
			t.Errorf("%s: HasIO %v, Parallelizable %v; want HasIO %v", c.call, a.HasIO, a.Parallelizable, c.io)
		}
	}
}

func TestSideEffectsNilFunc(t *testing.T) {
	e := SideEffects(nil, nil)
	if !e.CallsUnknown {
		t.Error("nil function should be unknown")
	}
}

func TestUnnormalizedInnerLoopConservative(t *testing.T) {
	// Inner loop with a non-affine step: conservatively analyzed.
	a := analyze(t, "for (i = 0; i < n; i++) { for (j = 1; j < n; j *= 2) a[i] = a[i] + w[j]; }")
	if a.Parallelizable {
		// The inner header mutates j multiplicatively; j's accesses are
		// treated as generic scalar writes → carried.
		t.Log("unnormalized inner loop accepted; acceptable only if j classified private")
		found := false
		for _, p := range a.Private {
			if p == "j" {
				found = true
			}
		}
		if !found {
			t.Fatal("unnormalized inner loop neither blocked nor privatized")
		}
	}
}

func TestDirectiveUnbalancedSchedule(t *testing.T) {
	src := `int guard(int i) { return i % 2; }
double heavy(int i) { double acc = 0; for (int q = 0; q < 100; q++) acc += q * i; return acc; }
for (i = 0; i < n; i++) if (guard(i)) out[i] = heavy(i);`
	a := analyze(t, src)
	if !a.Parallelizable {
		t.Fatalf("reasons: %v", a.Reasons)
	}
	d := a.Directive()
	if d == nil || d.Schedule.String() != "dynamic" {
		t.Errorf("directive = %v, want schedule(dynamic)", d)
	}
}
