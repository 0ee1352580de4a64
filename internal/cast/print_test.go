package cast

import (
	"strings"
	"testing"
)

func TestPrintDoWhile(t *testing.T) {
	s := &DoWhile{
		Body: &Block{Stmts: []Stmt{&ExprStmt{X: &UnaryOp{Op: "--", X: &Ident{Name: "x"}, Postfix: true}}}},
		Cond: &BinaryOp{Op: ">", L: &Ident{Name: "x"}, R: &IntLit{Text: "0"}},
	}
	out := Print(s)
	if !strings.Contains(out, "do") || !strings.Contains(out, "while (x > 0);") {
		t.Errorf("out = %q", out)
	}
}

func TestPrintWhile(t *testing.T) {
	s := &While{Cond: &Ident{Name: "p"}, Body: &Empty{}}
	out := Print(s)
	if !strings.Contains(out, "while (p)") {
		t.Errorf("out = %q", out)
	}
}

func TestPrintIfElse(t *testing.T) {
	s := &If{
		Cond: &Ident{Name: "c"},
		Then: &Return{X: &IntLit{Text: "1"}},
		Else: &Return{},
	}
	out := Print(s)
	if !strings.Contains(out, "if (c)") || !strings.Contains(out, "else") ||
		!strings.Contains(out, "return 1;") || !strings.Contains(out, "return;") {
		t.Errorf("out = %q", out)
	}
}

func TestPrintBreakContinueEmpty(t *testing.T) {
	out := Print(&Block{Stmts: []Stmt{&Break{}, &Continue{}, &Empty{}}})
	for _, want := range []string{"break;", "continue;", ";"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in %q", want, out)
		}
	}
}

func TestPrintDeclWithInitList(t *testing.T) {
	d := &Decl{
		Type:      &TypeSpec{Names: []string{"int"}},
		Name:      "a",
		ArrayDims: []Expr{&IntLit{Text: "3"}},
		Init:      &InitList{Elems: []Expr{&IntLit{Text: "1"}, &IntLit{Text: "2"}, &IntLit{Text: "3"}}},
	}
	out := Print(&File{Items: []Node{d}})
	if !strings.Contains(out, "int a[3] = {1, 2, 3};") {
		t.Errorf("out = %q", out)
	}
}

func TestPrintUnsizedArrayDim(t *testing.T) {
	d := &Decl{Type: &TypeSpec{Names: []string{"char"}}, Name: "s", ArrayDims: []Expr{nil}}
	if got := declString(d); got != "char s[]" {
		t.Errorf("got %q", got)
	}
}

// declString prints a declarator alone.
func declString(d *Decl) string {
	p := newPrinter()
	p.decl(d)
	return p.text(false)
}

// typeString prints a type alone.
func typeString(ts *TypeSpec) string {
	p := newPrinter()
	p.typ(ts)
	return p.text(false)
}

// TestTypeMatchesJoin: a type streamed to the printer is the text the
// printer built before by joining its words, with every part present or
// missing, and a declarator's name follows it as it did.
func TestTypeMatchesJoin(t *testing.T) {
	join := func(ts *TypeSpec) string {
		parts := append([]string(nil), ts.Quals...)
		if ts.Struct != "" {
			parts = append(parts, map[bool]string{false: "struct ", true: "union "}[ts.Union]+ts.Struct)
		}
		s := strings.Join(append(parts, ts.Names...), " ")
		if ts.Ptr > 0 {
			s += " " + strings.Repeat("*", ts.Ptr)
		}
		return s
	}
	for _, quals := range [][]string{nil, {"const"}, {"static", "volatile"}} {
		for _, tag := range []string{"", "node"} {
			for _, names := range [][]string{nil, {"int"}, {"unsigned", "long"}} {
				for ptr := 0; ptr < 3; ptr++ {
					ts := &TypeSpec{Quals: quals, Struct: tag, Union: ptr == 1, Names: names, Ptr: ptr}
					want := join(ts)
					if got := typeString(ts); got != want {
						t.Errorf("%+v prints %q, want %q", ts, got, want)
					}
					d := &Decl{Type: ts, Name: "x", IsTypedef: tag == ""}
					want = map[bool]string{false: "", true: "typedef "}[d.IsTypedef] + want
					if !strings.HasSuffix(want, "*") {
						want += " "
					}
					if got := declString(d); got != want+"x" {
						t.Errorf("%+v declares %q, want %q", ts, got, want+"x")
					}
				}
			}
		}
	}
}

func TestTypeStringUnion(t *testing.T) {
	ts := &TypeSpec{Struct: "u", Union: true, Ptr: 2}
	if got := typeString(ts); got != "union u **" {
		t.Errorf("got %q", got)
	}
	if got := typeString(nil); got != "int" {
		t.Errorf("nil type = %q", got)
	}
}

func TestPrintTypedefDecl(t *testing.T) {
	d := &Decl{Type: &TypeSpec{Names: []string{"unsigned", "long"}}, Name: "mytype", IsTypedef: true}
	if got := declString(d); got != "typedef unsigned long mytype" {
		t.Errorf("got %q", got)
	}
}

func TestPrintFuncDefParams(t *testing.T) {
	fd := &FuncDef{
		ReturnType: &TypeSpec{Names: []string{"double"}},
		Name:       "f",
		Params: []*Decl{
			{Type: &TypeSpec{Names: []string{"double"}, Ptr: 1}, Name: "v"},
			{Type: &TypeSpec{Names: []string{"int"}}, Name: "n"},
		},
		Body: &Block{Stmts: []Stmt{&Return{X: &ArrayRef{Arr: &Ident{Name: "v"}, Index: &IntLit{Text: "0"}}}}},
	}
	out := Print(fd)
	if !strings.Contains(out, "double f(double *v, int n) {") {
		t.Errorf("out = %q", out)
	}
}

func TestPrintSizeofExprForm(t *testing.T) {
	s := &Sizeof{X: &Ident{Name: "x"}}
	if got := PrintExpr(s); got != "sizeof(x)" {
		t.Errorf("got %q", got)
	}
}

func TestPrintAssignNested(t *testing.T) {
	// Assignment as a subexpression is parenthesized.
	e := &BinaryOp{Op: "+",
		L: &Assign{Op: "=", L: &Ident{Name: "x"}, R: &IntLit{Text: "1"}},
		R: &IntLit{Text: "2"}}
	if got := PrintExpr(e); got != "(x = 1) + 2" {
		t.Errorf("got %q", got)
	}
}

func TestPrintCommaInCall(t *testing.T) {
	// Comma operator as an argument is parenthesized.
	c := &FuncCall{Fun: &Ident{Name: "f"}, Args: []Expr{
		&Comma{L: &Ident{Name: "a"}, R: &Ident{Name: "b"}},
	}}
	if got := PrintExpr(c); got != "f((a, b))" {
		t.Errorf("got %q", got)
	}
}

func TestPrintPragmaWithoutStmt(t *testing.T) {
	out := Print(&PragmaStmt{Text: "pragma omp barrier"})
	if !strings.Contains(out, "#pragma omp barrier") {
		t.Errorf("out = %q", out)
	}
}

func TestSerializeDoWhileBreakContinue(t *testing.T) {
	s := &DoWhile{
		Body: &Block{Stmts: []Stmt{&Break{}, &Continue{}, &Empty{}}},
		Cond: &Ident{Name: "c"},
	}
	got := Serialize(s)
	for _, want := range []string{"DoWhile:", "Break:", "Continue:", "EmptyStatement:", "Compound:"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestSerializeFuncDefAndDecl(t *testing.T) {
	fd := &FuncDef{
		ReturnType: &TypeSpec{Names: []string{"int"}},
		Name:       "g",
		Params:     []*Decl{{Type: &TypeSpec{Names: []string{"int"}}, Name: "x"}},
		Body:       &Block{Stmts: []Stmt{&Return{X: &Ident{Name: "x"}}}},
	}
	got := Serialize(fd)
	for _, want := range []string{"FuncDef:", "Decl: g", "Decl: x", "TypeDecl: int", "Return:"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestSerializeTernarySizeofInitList(t *testing.T) {
	n := &Block{Stmts: []Stmt{
		&ExprStmt{X: &Ternary{Cond: &Ident{Name: "c"}, Then: &IntLit{Text: "1"}, Else: &IntLit{Text: "2"}}},
		&ExprStmt{X: &Sizeof{X: &Ident{Name: "v"}}},
		&DeclStmt{Decls: []*Decl{{
			Type: &TypeSpec{Names: []string{"int"}}, Name: "a",
			ArrayDims: []Expr{&IntLit{Text: "2"}},
			Init:      &InitList{Elems: []Expr{&IntLit{Text: "1"}}},
		}}},
	}}
	got := Serialize(n)
	for _, want := range []string{"TernaryOp:", "UnaryOp: sizeof", "InitList:", "ArrayDecl:"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestSerializePragmaAndCast(t *testing.T) {
	n := &PragmaStmt{Text: "pragma omp parallel for",
		Stmt: &ExprStmt{X: &Cast{Type: &TypeSpec{Names: []string{"ssize_t"}}, X: &Ident{Name: "n"}}}}
	got := Serialize(n)
	if !strings.Contains(got, "Pragma:") || !strings.Contains(got, "Cast: ssize_t") {
		t.Errorf("got %q", got)
	}
}

func TestSerializeCharAndString(t *testing.T) {
	n := &Block{Stmts: []Stmt{
		&ExprStmt{X: &CharLit{Text: "'a'"}},
		&ExprStmt{X: &StrLit{Text: `"hi"`}},
		&ExprStmt{X: &FloatLit{Text: "2.5"}},
	}}
	got := Serialize(n)
	for _, want := range []string{"Constant: char, 'a'", `Constant: string, "hi"`, "Constant: float, 2.5"} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in %q", want, got)
		}
	}
}

func TestSerializeCommaExprList(t *testing.T) {
	got := Serialize(&Comma{L: &Ident{Name: "a"}, R: &Ident{Name: "b"}})
	if !strings.HasPrefix(got, "ExprList:") {
		t.Errorf("got %q", got)
	}
}
