package cparse

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pragformer/internal/cast"
)

func readFixture(t testing.TB, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scantree", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestParseAllocs gates the parser's allocation diet on a declaration-heavy
// fixture, the shape slabbed expression nodes help least: pooled token
// buffer, slabbed nodes, type names stored with their TypeSpec.
// parentAllocs is the count at the commit before the diet.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const parentAllocs = 116
	src := readFixture(t, "stencil.c")
	got := testing.AllocsPerRun(200, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse(stencil.c): %.0f allocs (parent %d)", got, parentAllocs)
	if got > 0.40*parentAllocs {
		t.Errorf("Parse(stencil.c) allocates %.0f times, over 40 %% of the parent's %d", got, parentAllocs)
	}
}

// scantree reads every C source under examples/scantree, broken.c
// included, in path order: real corpus shapes (nested loops, pragmas,
// deliberately broken headers).
func scantree(tb testing.TB) (names, srcs []string) {
	tb.Helper()
	err := filepath.WalkDir(filepath.Join("..", "..", "examples", "scantree"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".c" {
			return err
		}
		data, err := os.ReadFile(path)
		names, srcs = append(names, path), append(srcs, string(data))
		return err
	})
	if err != nil || len(srcs) < 10 {
		tb.Fatalf("read %d fixtures: %v", len(srcs), err)
	}
	return names, srcs
}

// slabKinds are sources with the slabbed node kinds the scantree fixtures
// lack: calls with arguments, nested and empty, `if` with and without
// `else`, string literals, members through '.' and '->', and qualified
// types, cloned into a second declarator. The second source breaks inside a
// call's argument list, so the recovering parse leaves arguments stacked.
var slabKinds = []string{
	`void kernel(struct grid *g, const double *in, int n) {
    register int i;
    static const int lo = 1, hi = 4;
    for (i = 0; i < n; i++) {
        if (g->mask[i] && in[i] > g->cut.lo)
            g->out[i] = fmax(in[i], sqrt(fabs(g->cut.hi - in[i])));
        else
            printf("skip %d of %s\n", i, "kernel");
        if (i > hi) tick();
    }
}
`,
	`void f(int *a, int n) {
    for (int i = 0; i < n; i++) a[i] = g(a[i], h(1, "x";
}
void k(double *b, struct s q, int n) {
    for (int i = 0; i < n; i++) b[i] = pow(b[i], 2.0) + q.x;
}
`,
}

// TestTreeReuse: a parse into slabs a released tree handed back is the parse
// into fresh ones, for every ordered pair of fixtures, whether the first
// tree is released before the second parse or while the second is held.
// Pairs with grown parse into slabs that grow mid-parse, or into slabs a
// larger parse grew.
func TestTreeReuse(t *testing.T) {
	names, srcs := scantree(t)
	for name, src := range map[string]string{"slabKinds[0]": slabKinds[0], "statementKinds": statementKinds,
		"grown": grown} {
		if _, errs := ParseRecover(src); len(errs) > 0 {
			t.Fatalf("%s does not parse: %v", name, errs[0])
		}
	}
	for i, src := range slabKinds {
		names, srcs = append(names, fmt.Sprintf("slabKinds[%d]", i)), append(srcs, src)
	}
	names, srcs = append(names, "statementKinds", "grown"), append(srcs, statementKinds, grown)
	for i, srcA := range srcs {
		for j, srcB := range srcs {
			a, b := names[i], names[j]
			wantFile, wantErrs := ParseRecover(srcB)
			first := ParseTree(srcA)
			p := first.p
			first.Release()
			if !pinsNothing(p) {
				t.Fatalf("a parser released after %s still holds a slot of it", a)
			}
			after := ParseTree(srcB)
			held := ParseTree(srcA)
			if !reflect.DeepEqual(after.File, wantFile) || !reflect.DeepEqual(after.Errs, wantErrs) {
				t.Errorf("%s after releasing %s: tree differs from a fresh parse", b, a)
			}
			held.Release()
			if !reflect.DeepEqual(after.File, wantFile) {
				t.Errorf("%s: releasing %s while it was held changed it", b, a)
			}
			after.Release()
		}
	}
}

// pinsNothing reports whether every slot of p's slabs, their lists of
// outgrown arrays, token buffer and list stacks is zero up to its capacity:
// a pooled parser pins no source text.
func pinsNothing(p *Parser) bool {
	s := reflect.ValueOf(&p.slabs).Elem()
	bufs := []reflect.Value{reflect.ValueOf(p.buf), reflect.ValueOf(p.stmts), reflect.ValueOf(p.items), reflect.ValueOf(p.decls),
		reflect.ValueOf(p.args)}
	for i := 0; i < s.NumField(); i++ {
		bufs = append(bufs, s.Field(i).FieldByName("buf"), s.Field(i).FieldByName("old"))
	}
	for _, b := range bufs {
		b = b.Slice(0, b.Cap())
		for j := 0; j < b.Len(); j++ {
			if !b.Index(j).IsZero() {
				return false
			}
		}
	}
	return true
}

// statementKinds carries the statement kinds the fixtures hold few of:
// `#pragma` lines at file and block level, `while` and `return`, and the
// expression kinds they hold none of: casts and both forms of `sizeof`.
const statementKinds = `int count(const int *a, int n) {
    int i = 0, c = 0;
#pragma omp simd
    while (i < n) {
        if (a[i] > 0) c++;
        i++;
    }
    return c;
}
#pragma omp parallel for
for (i = 0; i < n; i++) a[i] = count(b[i], m);
for (i = 0; i < n; i++) w[i] = (double) a[i] / sizeof(double) + (long) sizeof a[i];
`

// grown is larger than any slab's first array: 400 statements with calls,
// `if`, members and strings.
var grown = func() string {
	var b strings.Builder
	b.WriteString("void big(struct grid *g, double *a, int n) {\n")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&b, "    if (g->mask[%d] > g->cut.lo) a[%d] = f(a[%d], %d.5, \"s%d\");\n", i, i, i+1, i, i)
	}
	return b.String() + "}\n"
}()

// TestParseTreeAllocs: in steady state a released tree's parser and slabs
// serve the next parse, which then allocates next to nothing, on a
// declaration-heavy fixture, a hand-annotated one and statementKinds alike.
// While `#pragma`, `while` and `return` statements were allocated one by
// one, the last two read 1 and 4; while casts and `sizeof` were,
// statementKinds read 4. grown runs after two warm-up parses have
// grown the slabs to its size.
func TestParseTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	for _, tc := range []struct{ name, src string }{
		{"stencil.c", readFixture(t, "stencil.c")},
		{"annotated.c", readFixture(t, "annotated.c")},
		{"statementKinds", statementKinds},
		{"grown", grown},
	} {
		ParseTree(tc.src).Release()
		ParseTree(tc.src).Release()
		got := testing.AllocsPerRun(200, func() { ParseTree(tc.src).Release() })
		t.Logf("ParseTree(%s)+Release: %.0f allocs", tc.name, got)
		if got > 3 {
			t.Errorf("ParseTree(%s)+Release allocates %.0f times, want at most 3", tc.name, got)
		}
	}
}

// TestPooledParserCarriesNothingOver: a pooled parser starts each source
// clean — a typedef from the last parse is not a type in the next.
func TestPooledParserCarriesNothingOver(t *testing.T) {
	for i := 0; i < 3; i++ {
		mustParse(t, "typedef int T;\nT x;")
		f := mustParse(t, "T * y;")
		if _, ok := f.Items[0].(*cast.ExprStmt); !ok {
			t.Fatalf("`T * y;` parsed as %T: the previous parse's typedef leaked", f.Items[0])
		}
	}
}

// TestSlabGrows: a full slab hands out its next nodes from an array at
// least twice as long, reset zeroes every slot it handed out, the outgrown
// array's included, and the slab keeps the larger array.
func TestSlabGrows(t *testing.T) {
	var s slab[cast.Ident]
	nodes := make([]*cast.Ident, minSlab+1)
	for i := range nodes {
		nodes[i] = put(&s, cast.Ident{Name: fmt.Sprint(i)})
	}
	if len(s.buf) < 2*minSlab || nodes[0] == &s.buf[0] || nodes[minSlab] != &s.buf[0] {
		t.Fatalf("after %d puts: array of %d, node %d not its first slot", len(nodes), len(s.buf), minSlab)
	}
	for i, n := range nodes {
		if n.Name != fmt.Sprint(i) {
			t.Fatalf("node %d reads %q after the slab grew", i, n.Name)
		}
	}
	grown := &s.buf[0]
	s.reset()
	for i, n := range nodes {
		if n.Name != "" {
			t.Fatalf("node %d reads %q after reset", i, n.Name)
		}
	}
	if len(s.old) != 0 || s.used != 0 || put(&s, cast.Ident{Name: "next"}) != grown {
		t.Errorf("after reset: %d outgrown arrays, %d used, next node not in the larger array", len(s.old), s.used)
	}
}
