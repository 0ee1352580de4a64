package pragma

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, line string) *Directive {
	t.Helper()
	d, err := Parse(line)
	if err != nil {
		t.Fatalf("Parse(%q): %v", line, err)
	}
	if d == nil {
		t.Fatalf("Parse(%q): nil directive", line)
	}
	return d
}

func TestParseBasic(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for")
	if !d.ParallelFor || d.HasPrivate() || d.HasReduction() {
		t.Errorf("d = %+v", d)
	}
}

func TestParsePrefixVariants(t *testing.T) {
	for _, line := range []string{
		"#pragma omp parallel for",
		"pragma omp parallel for",
		"omp parallel for",
		"  #pragma   omp   parallel   for  ",
	} {
		d := mustParse(t, line)
		if !d.ParallelFor {
			t.Errorf("%q: not parsed as parallel for", line)
		}
	}
}

func TestParsePrivate(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for private(i, j) private(k)")
	if len(d.Private) != 3 {
		t.Fatalf("private = %v", d.Private)
	}
	if !d.HasPrivate() {
		t.Error("HasPrivate = false")
	}
}

func TestParseReduction(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for reduction(+:sum) reduction(max:m)")
	if len(d.Reductions) != 2 {
		t.Fatalf("reductions = %v", d.Reductions)
	}
	if d.Reductions[0].Op != "+" || d.Reductions[0].Vars[0] != "sum" {
		t.Errorf("first = %v", d.Reductions[0])
	}
	if d.Reductions[1].Op != "max" {
		t.Errorf("second = %v", d.Reductions[1])
	}
}

func TestParseReductionMultiVar(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for reduction(+:a, b, c)")
	if len(d.Reductions) != 1 || len(d.Reductions[0].Vars) != 3 {
		t.Fatalf("reductions = %v", d.Reductions)
	}
}

func TestParseSchedule(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for schedule(dynamic,4)")
	if d.Schedule != ScheduleDynamic || d.Chunk != 4 {
		t.Errorf("schedule = %v chunk = %d", d.Schedule, d.Chunk)
	}
	d = mustParse(t, "#pragma omp parallel for schedule(static)")
	if d.Schedule != ScheduleStatic || d.Chunk != 0 {
		t.Errorf("schedule = %v chunk = %d", d.Schedule, d.Chunk)
	}
	d = mustParse(t, "#pragma omp parallel for schedule(guided,8)")
	if d.Schedule != ScheduleGuided || d.Chunk != 8 {
		t.Errorf("schedule = %v chunk = %d", d.Schedule, d.Chunk)
	}
}

func TestParseCollapseNowait(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for collapse(2) nowait")
	if d.Collapse != 2 || !d.NoWait {
		t.Errorf("d = %+v", d)
	}
}

func TestParseFirstPrivateShared(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for firstprivate(t0) shared(a, b)")
	if len(d.FirstPrivate) != 1 || len(d.Shared) != 2 {
		t.Errorf("d = %+v", d)
	}
	if !d.HasPrivate() {
		t.Error("firstprivate should count as private for RQ2")
	}
}

func TestParseDefaultAndNumThreads(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for default(shared) num_threads(8)")
	if !d.ParallelFor {
		t.Error("not parsed")
	}
}

func TestNonLoopOmpPragmasExcluded(t *testing.T) {
	for _, line := range []string{
		"#pragma omp critical",
		"#pragma omp barrier",
		"#pragma omp parallel",
		"#pragma omp task",
		"#pragma omp single",
	} {
		d, err := Parse(line)
		if err != nil {
			t.Errorf("Parse(%q): unexpected error %v", line, err)
		}
		if d != nil {
			t.Errorf("Parse(%q) = %v, want nil (excluded)", line, d)
		}
	}
}

func TestNonOmpPragmaIsError(t *testing.T) {
	if _, err := Parse("#pragma once"); err == nil {
		t.Error("expected error for non-omp pragma")
	}
	if _, err := Parse("#pragma GCC ivdep"); err == nil {
		t.Error("expected error for GCC pragma")
	}
}

func TestMalformedClauses(t *testing.T) {
	bad := []string{
		"#pragma omp parallel for private()",
		"#pragma omp parallel for private(i",
		"#pragma omp parallel for reduction(?:x)",
		"#pragma omp parallel for reduction(+ x)",
		"#pragma omp parallel for schedule(sometimes)",
		"#pragma omp parallel for collapse(two)",
		"#pragma omp parallel for frobnicate(3)",
	}
	for _, line := range bad {
		if _, err := Parse(line); err == nil {
			t.Errorf("Parse(%q): expected error", line)
		}
	}
}

func TestStringCanonical(t *testing.T) {
	d := &Directive{
		ParallelFor: true,
		Private:     []string{"j", "i"},
		Reductions:  []Reduction{{Op: "+", Vars: []string{"sum"}}},
		Schedule:    ScheduleDynamic,
		Chunk:       4,
	}
	got := d.String()
	want := "#pragma omp parallel for private(i, j) reduction(+:sum) schedule(dynamic,4)"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestNilDirectiveString(t *testing.T) {
	var d *Directive
	if d.String() != "" {
		t.Error("nil directive should print empty")
	}
	if d.HasPrivate() || d.HasReduction() {
		t.Error("nil directive has no clauses")
	}
}

func TestRoundTrip(t *testing.T) {
	lines := []string{
		"#pragma omp parallel for",
		"#pragma omp parallel for private(i, j)",
		"#pragma omp parallel for reduction(+:sum)",
		"#pragma omp parallel for private(j) reduction(*:prod) schedule(dynamic,4)",
		"#pragma omp parallel for firstprivate(t) nowait",
		"#pragma omp parallel for collapse(2) schedule(static)",
		"#pragma omp parallel for reduction(max:m) reduction(min:lo)",
		"#pragma omp parallel for reduction(&&:all_ok)",
	}
	for _, line := range lines {
		d1 := mustParse(t, line)
		d2 := mustParse(t, d1.String())
		if !Equal(d1, d2) {
			t.Errorf("round trip changed %q: %q vs %q", line, d1, d2)
		}
	}
}

func TestEqual(t *testing.T) {
	a := mustParse(t, "#pragma omp parallel for private(i, j)")
	b := mustParse(t, "#pragma omp parallel for private(j) private(i)")
	if !Equal(a, b) {
		t.Error("order-insensitive equality failed")
	}
	c := mustParse(t, "#pragma omp parallel for private(i)")
	if Equal(a, c) {
		t.Error("different clause sets reported equal")
	}
	if !Equal(nil, nil) {
		t.Error("nil == nil")
	}
	if Equal(a, nil) {
		t.Error("a != nil")
	}
}

// TestIsReductionOp: a reduction clause parses with exactly the operators
// OpenMP accepts, two-character ones included.
func TestIsReductionOp(t *testing.T) {
	for _, op := range []string{"+", "*", "-", "&", "|", "^", "&&", "||", "max", "min"} {
		d, err := Parse("#pragma omp parallel for reduction(" + op + ":x)")
		if err != nil || len(d.Reductions) != 1 || d.Reductions[0].Op != op {
			t.Errorf("%q should be valid: %+v, %v", op, d, err)
		}
	}
	for _, op := range []string{"/", "%", "<<", "foo"} {
		if _, err := Parse("#pragma omp parallel for reduction(" + op + ":x)"); err == nil {
			t.Errorf("%q should be invalid", op)
		}
	}
}

func TestScheduleKindString(t *testing.T) {
	if ScheduleStatic.String() != "static" || ScheduleDynamic.String() != "dynamic" ||
		ScheduleGuided.String() != "guided" || ScheduleNone.String() != "" {
		t.Error("schedule kind strings wrong")
	}
}

// Property: parsing the canonical string of any well-formed directive
// reproduces an Equal directive.
func TestParsePrintFixpoint(t *testing.T) {
	vars := []string{"i", "j", "k", "sum", "acc", "tmp"}
	ops := []string{"+", "*", "max", "min", "&&"}
	f := func(privMask, redMask uint8, sched uint8, chunk uint8, nowait bool) bool {
		d := &Directive{ParallelFor: true, NoWait: nowait}
		for b := 0; b < len(vars); b++ {
			if privMask&(1<<b) != 0 {
				d.Private = append(d.Private, vars[b])
			}
		}
		if int(redMask)%len(ops) != 0 {
			d.Reductions = []Reduction{{Op: ops[int(redMask)%len(ops)], Vars: []string{"sum"}}}
		}
		d.Schedule = ScheduleKind(sched % 4)
		if d.Schedule != ScheduleNone {
			d.Chunk = int(chunk % 16)
		}
		d2, err := Parse(d.String())
		if err != nil || d2 == nil {
			return false
		}
		return Equal(d, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStringStable(t *testing.T) {
	d := mustParse(t, "#pragma omp parallel for private(z, a, m) reduction(+:s2, s1)")
	s1 := d.String()
	s2 := d.String()
	if s1 != s2 {
		t.Error("String not deterministic")
	}
	if !strings.Contains(s1, "private(a, m, z)") {
		t.Errorf("variables not sorted: %q", s1)
	}
	if !strings.Contains(s1, "reduction(+:s1, s2)") {
		t.Errorf("reduction vars not sorted: %q", s1)
	}
}
