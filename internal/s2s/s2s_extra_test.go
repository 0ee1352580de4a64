package s2s

import (
	"errors"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/cparse"
)

func TestLooksLikeMacro(t *testing.T) {
	cases := map[string]bool{
		"POLYBENCH_LOOP_BOUND": true,
		"SCALAR_VAL":           true,
		"N":                    false, // too short
		"MAX":                  false, // too short
		"sqrt":                 false, // lowercase
		"MyMacro":              false, // mixed case
		"_FOO":                 true,
		"____":                 false, // no letters
		"SIZE2":                true,
	}
	for s, want := range cases {
		if got := looksLikeMacro(s); got != want {
			t.Errorf("looksLikeMacro(%q) = %v want %v", s, got, want)
		}
	}
}

func TestCetusRejectsUnexpandedMacros(t *testing.T) {
	_, err := Cetus{}.Compile("for (i = 0; i < POLYBENCH_LOOP_BOUND(4000, n); i++) a[i] = 0;")
	if !errors.Is(err, ErrParse) {
		t.Fatalf("err = %v, want ErrParse (unexpanded macro)", err)
	}
	// An all-caps plain identifier is fine — only function-like use breaks.
	res, err := Cetus{}.Compile("for (i = 0; i <= NMAX; i++) a[i] = 0;")
	if err != nil {
		t.Fatalf("plain caps identifier rejected: %v", err)
	}
	if res.Directive == nil {
		t.Fatalf("declined: %v", res.Reasons)
	}
}

func TestFirstLoopPrefersTopLevel(t *testing.T) {
	src := `double heavy(int n) { double s = 0; for (int q = 0; q < 100; q++) s += q; return s; }
for (i = 0; i < n; i++) out[i] = heavy(i);`
	f, err := cparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	loop := FirstLoop(f)
	if loop == nil {
		t.Fatal("no loop found")
	}
	// The target loop iterates over i, not the helper's q.
	if cond := cast.PrintExpr(loop.Cond); !strings.Contains(cond, "i <") {
		t.Errorf("wrong loop selected: cond %q", cond)
	}
}

func TestFirstLoopFallbackInsideFunc(t *testing.T) {
	src := `void init(double *v, int n) { for (int q = 0; q < n; q++) v[q] = 0; }`
	f, err := cparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if FirstLoop(f) == nil {
		t.Fatal("fallback loop not found")
	}
}

func TestFirstLoopNone(t *testing.T) {
	f, err := cparse.Parse("x = 1;")
	if err != nil {
		t.Fatal(err)
	}
	if FirstLoop(f) != nil {
		t.Fatal("loop found where none exists")
	}
}

func TestCompoundAssignPresent(t *testing.T) {
	cases := []struct {
		src, v, op string
		want       bool
	}{
		{"sum += a[i];", "sum", "+", true},
		{"sum  \t+= a[i];", "sum", "+", true},
		{"sum = sum + a[i];", "sum", "+", false},
		{"checksum += a[i];", "sum", "+", false}, // whole-token match
		{"prod *= a[i];", "prod", "*", true},
		{"x -= 1;", "x", "-", true},
		{"", "x", "+", false},
	}
	for _, c := range cases {
		if got := compoundAssignPresent(c.src, c.v, c.op); got != c.want {
			t.Errorf("compoundAssignPresent(%q, %q, %q) = %v want %v", c.src, c.v, c.op, got, c.want)
		}
	}
}

func TestCetusUnbalancedHeavyOmitted(t *testing.T) {
	// Guard function present, heavy function absent: Cetus cannot prove
	// safety and declines — the paper's missing-function-body pitfall.
	src := `int pick(int i) { return i % 3; }
for (i = 0; i <= N; i++) if (pick(i)) out[i] = crunch(i);`
	res, err := Cetus{}.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if res.Directive != nil {
		t.Fatalf("directive despite missing body: %v", res.Directive)
	}
}

func TestStripPragmas(t *testing.T) {
	src := "#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0;\n  #pragma omp barrier\nx = 1;"
	out := stripPragmas(src)
	if strings.Contains(out, "#pragma") {
		t.Errorf("pragmas survived: %q", out)
	}
	if !strings.Contains(out, "for (i = 0") || !strings.Contains(out, "x = 1;") {
		t.Errorf("code lost: %q", out)
	}
}

func TestAutoParTinyLoopStillAnnotated(t *testing.T) {
	// AutoPar has no profitability model at all.
	res, err := AutoPar{}.Compile("for (i = 0; i < 8; i++) a[i] = b[i];")
	if err != nil {
		t.Fatal(err)
	}
	if res.Directive == nil {
		t.Fatalf("AutoPar declined a trivially parallel tiny loop: %v", res.Reasons)
	}
}

func TestComParMembersConfigurable(t *testing.T) {
	c := &ComPar{Members: []member{Cetus{}}}
	res, err := c.Compile("for (i = 0; i < n; i++) a[i] = b[i];")
	if err != nil {
		t.Fatal(err)
	}
	if res.Directive == nil {
		t.Fatal("single-member ComPar failed")
	}
}
