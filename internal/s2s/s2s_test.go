package s2s

import (
	"errors"
	"strings"
	"testing"

	"pragformer/internal/pragma"
)

func compile(t *testing.T, c Compiler, src string) Result {
	t.Helper()
	res, err := c.Compile(src)
	if err != nil {
		t.Fatalf("%s.Compile(%q): %v", c.Name(), src, err)
	}
	return res
}

func TestCetusSimpleLoop(t *testing.T) {
	res := compile(t, Cetus{}, "for (i = 0; i < n; i++) a[i] = b[i] + c[i];")
	if res.Directive == nil {
		t.Fatalf("no directive: %v", res.Reasons)
	}
	// Pitfall: explicit private(i).
	if !strings.Contains(res.Directive.String(), "private(i)") {
		t.Errorf("directive = %q, want explicit private(i)", res.Directive)
	}
	if !strings.Contains(res.Source(), "#pragma omp parallel for") {
		t.Errorf("source not annotated:\n%s", res.Source())
	}
}

func TestCetusRejectsRegister(t *testing.T) {
	_, err := Cetus{}.Compile("for (register int i = 0; i < n; i++) a[i] = 0;")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want ErrParse", err)
	}
}

func TestCetusRejectsUnknownTypes(t *testing.T) {
	_, err := Cetus{}.Compile("for (i = 0; i < ((ssize_t) image->colors); i++) image->colormap[i].opacity = (IndexPacket) i;")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want ErrParse", err)
	}
}

func TestCetusDeclinesRecurrence(t *testing.T) {
	res := compile(t, Cetus{}, "for (i = 1; i < n; i++) a[i] = a[i-1] + 1;")
	if res.Directive != nil {
		t.Fatalf("directive on recurrence: %q", res.Directive)
	}
}

func TestCetusCompoundReduction(t *testing.T) {
	res := compile(t, Cetus{}, "for (i = 0; i < n; i++) sum += a[i];")
	if res.Directive == nil || !res.Directive.HasReduction() {
		t.Fatalf("compound reduction missed: %+v (%v)", res.Directive, res.Reasons)
	}
}

func TestCetusMissesExplicitReduction(t *testing.T) {
	// Pitfall: `s = s + e` form not recognized → loop left serial.
	res := compile(t, Cetus{}, "for (i = 0; i < n; i++) sum = sum + a[i];")
	if res.Directive != nil {
		t.Fatalf("explicit-form reduction should be declined, got %q", res.Directive)
	}
}

func TestCetusMissesMaxReduction(t *testing.T) {
	res := compile(t, Cetus{}, "for (i = 0; i < n; i++) m = fmax(m, a[i]);")
	if res.Directive != nil {
		t.Fatalf("max reduction should be declined, got %q", res.Directive)
	}
}

func TestCetusParallelizesTinyLoops(t *testing.T) {
	// Pitfall: profitability threshold far below human judgment. Trip
	// count 8 is unprofitable but Cetus still annotates it.
	res := compile(t, Cetus{}, "for (i = 0; i < 8; i++) a[i] = 0;")
	if res.Directive == nil {
		t.Fatalf("tiny loop should still get a directive: %v", res.Reasons)
	}
	// Truly degenerate loops are skipped.
	res = compile(t, Cetus{}, "for (i = 0; i < 2; i++) a[i] = 0;")
	if res.Directive != nil {
		t.Fatalf("trip-2 loop got a directive")
	}
}

func TestCetusNoDynamicSchedule(t *testing.T) {
	src := `int MoreCalc(int i) { return i % 3; }
int Calc(int i) { return i * i; }
for (i = 0; i <= N; i++) if (MoreCalc(i)) out[i] = Calc(i);`
	res := compile(t, Cetus{}, src)
	if res.Directive == nil {
		t.Fatalf("unbalanced loop declined: %v", res.Reasons)
	}
	if res.Directive.Schedule.String() != "static" {
		t.Errorf("schedule = %q, Cetus must stay static", res.Directive.Schedule)
	}
}

func TestCetusDeclinesUnknownCalls(t *testing.T) {
	res := compile(t, Cetus{}, "for (i = 0; i < n; i++) a[i] = mystery(i);")
	if res.Directive != nil {
		t.Fatal("directive despite unknown callee")
	}
}

func TestCetusStripsExistingPragma(t *testing.T) {
	res := compile(t, Cetus{}, "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0;")
	if strings.Count(res.Source(), "#pragma") != 1 {
		t.Errorf("source = %q", res.Source())
	}
}

func TestAutoParRejectsStructs(t *testing.T) {
	_, err := AutoPar{}.Compile("for (i = 0; i < n; i++) pts[i].x = 0;")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoParRejectsDoWhile(t *testing.T) {
	_, err := AutoPar{}.Compile("do { x--; } while (x > 0);\nfor (i = 0; i < n; i++) a[i] = 0;")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v", err)
	}
}

func TestAutoParMissesAllReductions(t *testing.T) {
	res := compile(t, AutoPar{}, "for (i = 0; i < n; i++) sum += a[i];")
	if res.Directive != nil {
		t.Fatalf("AutoPar should decline reductions, got %q", res.Directive)
	}
}

func TestAutoParSimpleLoop(t *testing.T) {
	res := compile(t, AutoPar{}, "for (i = 0; i < n; i++) { t = a[i]; b[i] = t * t; }")
	if res.Directive == nil {
		t.Fatalf("declined: %v", res.Reasons)
	}
	if !res.Directive.HasPrivate() {
		t.Errorf("directive = %q, want private clauses", res.Directive)
	}
}

func TestPar4AllFailsOnCalls(t *testing.T) {
	_, err := Par4All{}.Compile("for (i = 0; i < n; i++) a[i] = sqrt(b[i]);")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v", err)
	}
}

func TestPar4AllSimplestLoopOnly(t *testing.T) {
	res := compile(t, Par4All{}, "for (i = 0; i < n; i++) a[i] = b[i] + 1;")
	if res.Directive == nil {
		t.Fatalf("declined: %v", res.Reasons)
	}
	// Needs privatization → declines.
	res = compile(t, Par4All{}, "for (i = 0; i < n; i++) { t = a[i]; b[i] = t; }")
	if res.Directive != nil {
		t.Errorf("Par4All should decline loops needing privatization")
	}
}

func TestComParPicksRichestDirective(t *testing.T) {
	c := NewComPar()
	res, err := c.Compile("for (i = 0; i < n; i++) sum += a[i];")
	if err != nil {
		t.Fatal(err)
	}
	// Par4All fails or declines, AutoPar declines, Cetus produces
	// reduction — ComPar must surface Cetus's result.
	if res.Directive == nil || !res.Directive.HasReduction() {
		t.Fatalf("directive = %v (%v)", res.Directive, res.Reasons)
	}
}

func TestComParFailsOnlyWhenAllFail(t *testing.T) {
	c := NewComPar()
	// register breaks Cetus, AutoPar and Par4All alike.
	_, err := c.Compile("for (register int i = 0; i < n; i++) a[i] = 0;")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v", err)
	}
	// Struct access breaks AutoPar/Par4All but Cetus handles it.
	res, err := c.Compile("for (i = 0; i < n; i++) pts[i].x = i;")
	if err != nil {
		t.Fatalf("ComPar should survive via Cetus: %v", err)
	}
	if res.Directive == nil {
		t.Fatalf("no directive: %v", res.Reasons)
	}
}

func TestComParNoDirectiveStillCompiles(t *testing.T) {
	c := NewComPar()
	res, err := c.Compile("for (i = 1; i < n; i++) a[i] = a[i-1];")
	if err != nil {
		t.Fatal(err)
	}
	if res.Directive != nil {
		t.Fatal("directive on serial loop")
	}
}

func TestAllCompilersIgnoreIOLoops(t *testing.T) {
	src := `for (i = 0; i < n; i++) { fprintf(stderr, "%d", a[i]); }`
	for _, c := range []Compiler{Cetus{}, AutoPar{}} {
		res, err := c.Compile(src)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if res.Directive != nil {
			t.Errorf("%s parallelized an I/O loop", c.Name())
		}
	}
}

func TestNoForLoopIsError(t *testing.T) {
	for _, c := range []Compiler{Cetus{}, AutoPar{}, Par4All{}} {
		if _, err := c.Compile("x = y + 1;"); !errors.Is(err, ErrParse) {
			t.Errorf("%s: err = %v", c.Name(), err)
		}
	}
}

func TestNames(t *testing.T) {
	if (Cetus{}).Name() != "Cetus" || (AutoPar{}).Name() != "AutoPar" ||
		(Par4All{}).Name() != "Par4All" || NewComPar().Name() != "ComPar" {
		t.Error("compiler names wrong")
	}
}

func TestScoreOrdering(t *testing.T) {
	none := Result{}
	plain := Result{Directive: mustDirective(t, "#pragma omp parallel for")}
	rich := Result{Directive: mustDirective(t, "#pragma omp parallel for private(i, j) reduction(+:s)")}
	if !(score(rich) > score(plain) && score(plain) > score(none)) {
		t.Errorf("scores: rich=%d plain=%d none=%d", score(rich), score(plain), score(none))
	}
}

func mustDirective(t *testing.T, line string) *pragma.Directive {
	t.Helper()
	d, err := pragma.Parse(line)
	if err != nil || d == nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	return d
}
