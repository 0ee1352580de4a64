package cparse

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/cast"
)

func mustParse(t *testing.T, src string) *cast.File {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return f
}

func firstFor(t *testing.T, n cast.Node) *cast.For {
	t.Helper()
	var found *cast.For
	cast.Walk(n, func(nd cast.Node) bool {
		if f, ok := nd.(*cast.For); ok && found == nil {
			found = f
			return false
		}
		return true
	})
	if found == nil {
		t.Fatal("no for-loop found")
	}
	return found
}

func TestSimpleFor(t *testing.T) {
	f := mustParse(t, "for (i = 0; i <= N; i++) A[i] = i;")
	loop := firstFor(t, f)
	init, ok := loop.Init.(*cast.ExprStmt)
	if !ok {
		t.Fatalf("init is %T", loop.Init)
	}
	asg, ok := init.X.(*cast.Assign)
	if !ok || asg.Op != "=" {
		t.Fatalf("init expr is %T", init.X)
	}
	cond, ok := loop.Cond.(*cast.BinaryOp)
	if !ok || cond.Op != "<=" {
		t.Fatalf("cond is %#v", loop.Cond)
	}
	post, ok := loop.Post.(*cast.UnaryOp)
	if !ok || post.Op != "++" || !post.Postfix {
		t.Fatalf("post is %#v", loop.Post)
	}
	if _, ok := loop.Body.(*cast.ExprStmt); !ok {
		t.Fatalf("body is %T", loop.Body)
	}
}

func TestForWithDecl(t *testing.T) {
	f := mustParse(t, "for (int i = 0; i < n; ++i) { sum += a[i]; }")
	loop := firstFor(t, f)
	ds, ok := loop.Init.(*cast.DeclStmt)
	if !ok {
		t.Fatalf("init is %T", loop.Init)
	}
	if len(ds.Decls) != 1 || ds.Decls[0].Name != "i" {
		t.Fatalf("decls = %#v", ds.Decls)
	}
}

func TestPragmaAttachment(t *testing.T) {
	src := "#pragma omp parallel for private(j)\nfor (i = 0; i < n; i++)\n  for (j = 0; j < n; j++)\n    x[i] = x[i] + A[i][j] * y[j];"
	f := mustParse(t, src)
	ps, ok := f.Items[0].(*cast.PragmaStmt)
	if !ok {
		t.Fatalf("first item is %T", f.Items[0])
	}
	if !strings.Contains(ps.Text, "private(j)") {
		t.Errorf("pragma text = %q", ps.Text)
	}
	if _, ok := ps.Stmt.(*cast.For); !ok {
		t.Fatalf("pragma stmt is %T", ps.Stmt)
	}
}

// TestPragmaBeforeFunction: a file-level pragma before a function
// definition (declare simd, declare target) stands alone, bodiless, ahead
// of the definition; one before a declaration or a loop still wraps it.
func TestPragmaBeforeFunction(t *testing.T) {
	for _, tc := range []struct {
		src  string
		want []string // the file's items: a pragma's text, else the node type
	}{
		{"#pragma omp declare simd\nint twice(int x) { return 2 * x; }",
			[]string{"pragma omp declare simd", "*cast.FuncDef"}},
		{"#pragma omp declare target\n#pragma omp declare simd uniform(n)\nvoid f(int n);\n#pragma omp end declare target\n",
			[]string{"pragma omp declare target", "pragma omp declare simd uniform(n)", "*cast.FuncDef", "pragma omp end declare target"}},
		{"#pragma omp threadprivate(x)\nint x;", []string{"pragma omp threadprivate(x) *cast.DeclStmt"}},
		{"#pragma omp parallel for\nfor (i = 0; i < n; i++) a[i] = 0;", []string{"pragma omp parallel for *cast.For"}},
	} {
		f, errs := ParseRecover(tc.src)
		if len(errs) > 0 {
			t.Errorf("%q: %v", tc.src, errs)
			continue
		}
		var got []string
		for _, it := range f.Items {
			if ps, ok := it.(*cast.PragmaStmt); !ok {
				got = append(got, fmt.Sprintf("%T", it))
			} else if ps.Stmt == nil {
				got = append(got, ps.Text)
			} else {
				got = append(got, fmt.Sprintf("%s %T", ps.Text, ps.Stmt))
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q: items %q, want %q", tc.src, got, tc.want)
		}
	}
	// The function after a declare simd is the one written.
	f := mustParse(t, "#pragma omp declare simd\nint twice(int x) { return 2 * x; }")
	if fd := f.Items[1].(*cast.FuncDef); fd.Name != "twice" || len(fd.Params) != 1 {
		t.Errorf("function %q with %d params", fd.Name, len(fd.Params))
	}
}

func TestNestedArrayRef(t *testing.T) {
	f := mustParse(t, "A[i][j] = B[j][i];")
	es := f.Items[0].(*cast.ExprStmt)
	asg := es.X.(*cast.Assign)
	lhs := asg.L.(*cast.ArrayRef)
	inner := lhs.Arr.(*cast.ArrayRef)
	if inner.Arr.(*cast.Ident).Name != "A" {
		t.Errorf("base = %v", inner.Arr)
	}
}

func TestPrecedence(t *testing.T) {
	f := mustParse(t, "x = a + b * c - d / e;")
	// Expect ((a + (b*c)) - (d/e)).
	asg := f.Items[0].(*cast.ExprStmt).X.(*cast.Assign)
	top := asg.R.(*cast.BinaryOp)
	if top.Op != "-" {
		t.Fatalf("top op = %q", top.Op)
	}
	l := top.L.(*cast.BinaryOp)
	if l.Op != "+" {
		t.Fatalf("left op = %q", l.Op)
	}
	if l.R.(*cast.BinaryOp).Op != "*" {
		t.Errorf("expected * under +")
	}
	if top.R.(*cast.BinaryOp).Op != "/" {
		t.Errorf("expected / on right")
	}
}

func TestLeftAssociativity(t *testing.T) {
	f := mustParse(t, "x = a - b - c;")
	asg := f.Items[0].(*cast.ExprStmt).X.(*cast.Assign)
	top := asg.R.(*cast.BinaryOp)
	// (a-b)-c
	if _, ok := top.L.(*cast.BinaryOp); !ok {
		t.Fatalf("expected left-nested, got right-nested: %#v", top)
	}
}

func TestAssignRightAssociativity(t *testing.T) {
	f := mustParse(t, "a = b = c;")
	asg := f.Items[0].(*cast.ExprStmt).X.(*cast.Assign)
	if _, ok := asg.R.(*cast.Assign); !ok {
		t.Fatalf("expected a = (b = c), got %#v", asg)
	}
}

func TestTernary(t *testing.T) {
	f := mustParse(t, "m = a > b ? a : b;")
	asg := f.Items[0].(*cast.ExprStmt).X.(*cast.Assign)
	if _, ok := asg.R.(*cast.Ternary); !ok {
		t.Fatalf("got %#v", asg.R)
	}
}

func TestCastExpression(t *testing.T) {
	f := mustParse(t, "for (i = 0; i < ((ssize_t) image->colors); i++) image->colormap[i].opacity = (IndexPacket) i;")
	loop := firstFor(t, f)
	var foundCast, foundArrow, foundDot bool
	cast.Walk(loop, func(n cast.Node) bool {
		switch v := n.(type) {
		case *cast.Cast:
			foundCast = true
		case *cast.Member:
			if v.Arrow {
				foundArrow = true
			} else {
				foundDot = true
			}
		}
		return true
	})
	if !foundCast || !foundArrow || !foundDot {
		t.Errorf("cast=%v arrow=%v dot=%v, want all true", foundCast, foundArrow, foundDot)
	}
}

func TestRegisterStorageClass(t *testing.T) {
	f := mustParse(t, "for (register int i = 0; i < n; i++) s += a[i];")
	loop := firstFor(t, f)
	ds := loop.Init.(*cast.DeclStmt)
	if len(ds.Decls[0].Type.Quals) == 0 || ds.Decls[0].Type.Quals[0] != "register" {
		t.Errorf("quals = %v", ds.Decls[0].Type.Quals)
	}
}

func TestTypedefIntroducesType(t *testing.T) {
	f := mustParse(t, "typedef unsigned long mytype;\nmytype x = 3;")
	if len(f.Items) != 2 {
		t.Fatalf("items = %d", len(f.Items))
	}
	ds := f.Items[1].(*cast.DeclStmt)
	if ds.Decls[0].Type.Names[0] != "mytype" {
		t.Errorf("type = %v", ds.Decls[0].Type.Names)
	}
}

func TestFunctionDefinition(t *testing.T) {
	src := "double norm(double *v, int n) {\n  double s = 0;\n  for (int i = 0; i < n; i++) s += v[i] * v[i];\n  return sqrt(s);\n}"
	f := mustParse(t, src)
	fd, ok := f.Items[0].(*cast.FuncDef)
	if !ok {
		t.Fatalf("item is %T", f.Items[0])
	}
	if fd.Name != "norm" || len(fd.Params) != 2 {
		t.Errorf("name=%q params=%d", fd.Name, len(fd.Params))
	}
	if fd.Params[0].Type.Ptr != 1 {
		t.Errorf("first param ptr = %d", fd.Params[0].Type.Ptr)
	}
}

func TestFunctionCallArgs(t *testing.T) {
	f := mustParse(t, `fprintf(stderr, "%0.2lf ", x[i]);`)
	call := f.Items[0].(*cast.ExprStmt).X.(*cast.FuncCall)
	if len(call.Args) != 3 {
		t.Fatalf("args = %d", len(call.Args))
	}
	if call.Fun.(*cast.Ident).Name != "fprintf" {
		t.Errorf("fun = %v", call.Fun)
	}
}

func TestIfElse(t *testing.T) {
	f := mustParse(t, "if (x > 0) y = 1; else y = -1;")
	st := f.Items[0].(*cast.If)
	if st.Else == nil {
		t.Fatal("else missing")
	}
}

func TestWhileAndDoWhile(t *testing.T) {
	f := mustParse(t, "while (p) p = next(p);\ndo { x--; } while (x > 0);")
	if _, ok := f.Items[0].(*cast.While); !ok {
		t.Fatalf("item0 %T", f.Items[0])
	}
	if _, ok := f.Items[1].(*cast.DoWhile); !ok {
		t.Fatalf("item1 %T", f.Items[1])
	}
}

func TestBreakContinueReturn(t *testing.T) {
	src := "for (i = 0; i < n; i++) { if (a[i] < 0) break; if (a[i] == 0) continue; s += a[i]; }"
	f := mustParse(t, src)
	var nb, nc int
	cast.Walk(f, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.Break:
			nb++
		case *cast.Continue:
			nc++
		}
		return true
	})
	if nb != 1 || nc != 1 {
		t.Errorf("break=%d continue=%d", nb, nc)
	}
}

func TestMultiDeclarator(t *testing.T) {
	f := mustParse(t, "int a = 1, *b, c[10];")
	ds := f.Items[0].(*cast.DeclStmt)
	if len(ds.Decls) != 3 {
		t.Fatalf("decls = %d", len(ds.Decls))
	}
	if ds.Decls[1].Type.Ptr != 1 {
		t.Errorf("b ptr = %d", ds.Decls[1].Type.Ptr)
	}
	if len(ds.Decls[2].ArrayDims) != 1 {
		t.Errorf("c dims = %d", len(ds.Decls[2].ArrayDims))
	}
	// The first declarator takes the base type itself and the rest copies:
	// each has the words, and a later one's stars stay its own.
	ds = mustParse(t, "unsigned long a, **b, c;").Items[0].(*cast.DeclStmt)
	for i, want := range []int{0, 2, 0} {
		d := ds.Decls[i]
		if d.Type.Ptr != want || strings.Join(d.Type.Names, " ") != "unsigned long" {
			t.Errorf("%s: type %v ptr %d, want unsigned long ptr %d", d.Name, d.Type.Names, d.Type.Ptr, want)
		}
	}
}

func TestSizeof(t *testing.T) {
	f := mustParse(t, "p = malloc(n * sizeof(double)); q = sizeof x;")
	var count int
	cast.Walk(f, func(n cast.Node) bool {
		if _, ok := n.(*cast.Sizeof); ok {
			count++
		}
		return true
	})
	if count != 2 {
		t.Errorf("sizeof count = %d", count)
	}
}

func TestCommaOperator(t *testing.T) {
	f := mustParse(t, "for (i = 0, j = n; i < j; i++, j--) swap(a, i, j);")
	loop := firstFor(t, f)
	if _, ok := loop.Init.(*cast.ExprStmt).X.(*cast.Comma); !ok {
		t.Errorf("init = %#v", loop.Init)
	}
	if _, ok := loop.Post.(*cast.Comma); !ok {
		t.Errorf("post = %#v", loop.Post)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"for (i = 0; i < n; i++",
		"x = ;",
		"int ;",
		"if (x  { y = 1; }",
		"a[i = 2;",
		"} x;",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// TestPrintParseRoundTrip is the key integration property: printing an AST
// and reparsing it yields an identical serialization. The corpus generator
// depends on this.
func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"for (i = 0; i <= N; i++) A[i] = i;",
		"#pragma omp parallel for reduction(+:sum)\nfor (i = 0; i < n; i++) sum += a[i] * b[i];",
		"for (i = 0; i < n; i++) { for (j = 0; j < m; j++) { c[i][j] = a[i][j] + b[i][j]; } }",
		"if (MoreCalc(i)) Calc(i); else Other(i, j + 1);",
		"for (i = 0; i < n; i++) { fprintf(stderr, \"%0.2lf \", x[i]); if ((i % 20) == 0) fprintf(stderr, \" \\n\"); }",
		"double s = 0;\nfor (int i = 0; i < len; i++) s += v[i] * v[i];",
		"x = a > b ? (a - b) : (b - a);",
		"for (i = 0; i < ((ssize_t) image->colors); i++) image->colormap[i].opacity = (IndexPacket) i;",
		"while (count < limit) { count = count + step(count); }",
		"p->next = q; r = (*p).val;",
	}
	for _, src := range srcs {
		f1 := mustParse(t, src)
		printed := cast.Print(f1)
		f2, err := Parse(printed)
		if err != nil {
			t.Fatalf("reparse of %q failed: %v\nprinted:\n%s", src, err, printed)
		}
		s1, s2 := cast.Serialize(f1), cast.Serialize(f2)
		if s1 != s2 {
			t.Errorf("round trip mismatch for %q:\n%s\nvs\n%s", src, s1, s2)
		}
	}
}

func TestSerializeMatchesPaperShape(t *testing.T) {
	// Table 6 of the paper: the text example's AST serialization.
	f := mustParse(t, "for (i = 0; i < len; i++) a[i] = i;")
	got := cast.Serialize(f)
	want := "For: Assignment: = ID: i Constant: int, 0 BinaryOp: < ID: i ID: len UnaryOp: p++ ID: i Assignment: = ArrayRef: ID: a ID: i ID: i"
	if got != want {
		t.Errorf("serialization:\n got %q\nwant %q", got, want)
	}
}

func TestRenameTable6(t *testing.T) {
	// Table 6: replaced text example.
	f := mustParse(t, "for (i = 0; i < len; i++) a[i] = i;")
	cast.Rename(f)
	printed := strings.Join(strings.Fields(cast.Print(f)), " ")
	want := "for (var0 = 0; var0 < var1; var0++) arr0[var0] = var0;"
	if printed != want {
		t.Errorf("replaced text:\n got %q\nwant %q", printed, want)
	}
}

func TestRenameKeepsLibraryNames(t *testing.T) {
	f := mustParse(t, `for (i = 0; i < n; i++) fprintf(stderr, "%d", a[i]);`)
	cast.Rename(f)
	printed := cast.Print(f)
	if !strings.Contains(printed, "fprintf") || !strings.Contains(printed, "stderr") {
		t.Errorf("library names renamed:\n%s", printed)
	}
	if strings.Contains(printed, " i ") {
		t.Errorf("user identifier i not renamed:\n%s", printed)
	}
}

func TestRenameConsistency(t *testing.T) {
	f := mustParse(t, "for (i = 0; i < n; i++) { a[i] = b[i]; t = a[i] + helper(t, i); }")
	res := cast.Rename(f)
	if res.Mapping["a"] == res.Mapping["b"] {
		t.Errorf("distinct arrays mapped to same name: %v", res.Mapping)
	}
	if !strings.HasPrefix(res.Mapping["a"], "arr") {
		t.Errorf("a mapped to %q, want arr prefix", res.Mapping["a"])
	}
	if !strings.HasPrefix(res.Mapping["helper"], "func") {
		t.Errorf("helper mapped to %q, want func prefix", res.Mapping["helper"])
	}
	if !strings.HasPrefix(res.Mapping["i"], "var") {
		t.Errorf("i mapped to %q, want var prefix", res.Mapping["i"])
	}
}

func TestDeepNesting(t *testing.T) {
	src := "for (i = 0; i < n; i++) { for (j = 0; j < n; j++) { for (k = 0; k < n; k++) { c[i][j] += a[i][k] * b[k][j]; } } }"
	f := mustParse(t, src)
	var depth int
	cast.Walk(f, func(n cast.Node) bool {
		if _, ok := n.(*cast.For); ok {
			depth++
		}
		return true
	})
	if depth != 3 {
		t.Errorf("for depth = %d", depth)
	}
}

// loops20 is twenty one-line loops, each with a call.
var loops20 = strings.Repeat("for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + f(i); }\n", 20)

// BenchmarkParse times the path whose tree the caller keeps, on fresh slabs.
func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(loops20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseTree times the pooled path every scan, advisor call and
// router canonical print takes: a parse into the slabs the last released
// tree handed back.
func BenchmarkParseTree(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"kernel.c", readFixture(b, "nested/kernel.c")},
		{"loops20", loops20},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ParseTree(bc.src).Release()
			}
		})
	}
}
