package cast

import (
	"strings"
	"testing"
)

// Tests here build ASTs by hand; parser-driven round trips live in cparse.

func loopAST() *For {
	// for (i = 0; i < n; i++) a[i] = b[i] + 1;
	return &For{
		Init: &ExprStmt{X: &Assign{Op: "=", L: &Ident{Name: "i"}, R: &IntLit{Text: "0"}}},
		Cond: &BinaryOp{Op: "<", L: &Ident{Name: "i"}, R: &Ident{Name: "n"}},
		Post: &UnaryOp{Op: "++", X: &Ident{Name: "i"}, Postfix: true},
		Body: &ExprStmt{X: &Assign{
			Op: "=",
			L:  &ArrayRef{Arr: &Ident{Name: "a"}, Index: &Ident{Name: "i"}},
			R:  &BinaryOp{Op: "+", L: &ArrayRef{Arr: &Ident{Name: "b"}, Index: &Ident{Name: "i"}}, R: &IntLit{Text: "1"}},
		}},
	}
}

func TestPrintLoop(t *testing.T) {
	got := strings.Join(strings.Fields(Print(loopAST())), " ")
	want := "for (i = 0; i < n; i++) a[i] = b[i] + 1;"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestPrintParenthesization(t *testing.T) {
	// (a + b) * c must keep its parens.
	e := &BinaryOp{Op: "*",
		L: &BinaryOp{Op: "+", L: &Ident{Name: "a"}, R: &Ident{Name: "b"}},
		R: &Ident{Name: "c"}}
	if got := PrintExpr(e); got != "(a + b) * c" {
		t.Errorf("got %q", got)
	}
	// a + b * c needs none.
	e2 := &BinaryOp{Op: "+",
		L: &Ident{Name: "a"},
		R: &BinaryOp{Op: "*", L: &Ident{Name: "b"}, R: &Ident{Name: "c"}}}
	if got := PrintExpr(e2); got != "a + b * c" {
		t.Errorf("got %q", got)
	}
	// a - (b - c) keeps parens (left associativity).
	e3 := &BinaryOp{Op: "-",
		L: &Ident{Name: "a"},
		R: &BinaryOp{Op: "-", L: &Ident{Name: "b"}, R: &Ident{Name: "c"}}}
	if got := PrintExpr(e3); got != "a - (b - c)" {
		t.Errorf("got %q", got)
	}
}

func TestPrintUnary(t *testing.T) {
	pre := &UnaryOp{Op: "-", X: &Ident{Name: "x"}}
	if got := PrintExpr(pre); got != "-x" {
		t.Errorf("got %q", got)
	}
	post := &UnaryOp{Op: "--", X: &Ident{Name: "x"}, Postfix: true}
	if got := PrintExpr(post); got != "x--" {
		t.Errorf("got %q", got)
	}
}

func TestPrintPragma(t *testing.T) {
	ps := &PragmaStmt{Text: "pragma omp parallel for", Stmt: loopAST()}
	out := Print(ps)
	if !strings.HasPrefix(out, "#pragma omp parallel for\n") {
		t.Errorf("out = %q", out)
	}
}

func TestPrintTypes(t *testing.T) {
	d := &Decl{
		Type:      &TypeSpec{Quals: []string{"const"}, Names: []string{"unsigned", "long"}, Ptr: 1},
		Name:      "p",
		ArrayDims: []Expr{&IntLit{Text: "4"}},
	}
	got := declString(d)
	if got != "const unsigned long *p[4]" {
		t.Errorf("got %q", got)
	}
	sd := &Decl{Type: &TypeSpec{Struct: "node", Ptr: 1}, Name: "head"}
	if got := declString(sd); got != "struct node *head" {
		t.Errorf("got %q", got)
	}
}

func TestPrintFuncDef(t *testing.T) {
	fd := &FuncDef{
		ReturnType: &TypeSpec{Names: []string{"void"}},
		Name:       "init",
		Body:       &Block{Stmts: []Stmt{&Return{}}},
	}
	out := Print(fd)
	if !strings.Contains(out, "void init(void) {") {
		t.Errorf("out = %q", out)
	}
}

func TestSerializeStructRef(t *testing.T) {
	m := &Member{X: &Ident{Name: "img"}, Field: "cols", Arrow: true}
	got := Serialize(m)
	if got != "StructRef: -> ID: img ID: cols" {
		t.Errorf("got %q", got)
	}
}

func TestSerializeTokens(t *testing.T) {
	toks := SerializeTokens(loopAST())
	if len(toks) == 0 || toks[0] != "For:" {
		t.Fatalf("toks = %v", toks)
	}
	joined := strings.Join(toks, " ")
	if joined != Serialize(loopAST()) {
		t.Error("token join differs from Serialize")
	}
}

func TestWalkPruning(t *testing.T) {
	n := loopAST()
	var count int
	Walk(n, func(Node) bool { count++; return false })
	if count != 1 {
		t.Errorf("count = %d, pruning failed", count)
	}
}

func TestWalkNil(t *testing.T) {
	Walk(nil, func(Node) bool { t.Fatal("visited nil"); return true }) // must not panic
}

func TestRootIdent(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{&Ident{Name: "a"}, "a"},
		{&ArrayRef{Arr: &ArrayRef{Arr: &Ident{Name: "m"}, Index: &Ident{Name: "i"}}, Index: &Ident{Name: "j"}}, "m"},
		{&Member{X: &Ident{Name: "s"}, Field: "f"}, "s"},
		{&UnaryOp{Op: "*", X: &Ident{Name: "p"}}, "p"},
		{&IntLit{Text: "7"}, ""},
	}
	for _, c := range cases {
		if got := RootIdent(c.e); got != c.want {
			t.Errorf("RootIdent(%v) = %q want %q", c.e, got, c.want)
		}
	}
}

func TestRenameNumbersFollowFirstAppearance(t *testing.T) {
	// z appears before y: z should get var0.
	n := &Block{Stmts: []Stmt{
		&ExprStmt{X: &Assign{Op: "=", L: &Ident{Name: "z"}, R: &Ident{Name: "y"}}},
	}}
	res := Rename(n)
	if res.Mapping["z"] != "var0" || res.Mapping["y"] != "var1" {
		t.Errorf("mapping = %v", res.Mapping)
	}
}

func TestRenameIdempotentClasses(t *testing.T) {
	// A name used as both scalar and array base counts as an array.
	n := &Block{Stmts: []Stmt{
		&ExprStmt{X: &Assign{Op: "=", L: &Ident{Name: "d"}, R: &ArrayRef{Arr: &Ident{Name: "d"}, Index: &IntLit{Text: "0"}}}},
	}}
	res := Rename(n)
	if !strings.HasPrefix(res.Mapping["d"], "arr") {
		t.Errorf("mapping = %v", res.Mapping)
	}
}

func TestIsLibraryName(t *testing.T) {
	if !IsLibraryName("fprintf") || !IsLibraryName("stderr") {
		t.Error("fprintf/stderr should be library names")
	}
	if IsLibraryName("myhelper") {
		t.Error("myhelper should not be a library name")
	}
}

func TestPrintCastAndSizeof(t *testing.T) {
	e := &Cast{Type: &TypeSpec{Names: []string{"ssize_t"}}, X: &Member{X: &Ident{Name: "image"}, Field: "colors", Arrow: true}}
	if got := PrintExpr(e); got != "(ssize_t) image->colors" {
		t.Errorf("got %q", got)
	}
	s := &Sizeof{Type: &TypeSpec{Names: []string{"double"}}}
	if got := PrintExpr(s); got != "sizeof(double)" {
		t.Errorf("got %q", got)
	}
}

func TestPrintTernaryAndComma(t *testing.T) {
	e := &Ternary{Cond: &Ident{Name: "c"}, Then: &IntLit{Text: "1"}, Else: &IntLit{Text: "0"}}
	if got := PrintExpr(e); got != "c ? 1 : 0" {
		t.Errorf("got %q", got)
	}
	cm := &Comma{L: &Assign{Op: "=", L: &Ident{Name: "i"}, R: &IntLit{Text: "0"}},
		R: &Assign{Op: "=", L: &Ident{Name: "j"}, R: &Ident{Name: "n"}}}
	if got := PrintExpr(cm); got != "i = 0, j = n" {
		t.Errorf("got %q", got)
	}
}
