package corpus

import (
	"strconv"

	"pragformer/internal/cast"
)

// Tiny AST-construction helpers used by the snippet templates. They keep
// template code close to the C it produces.

func id(name string) *cast.Ident { return &cast.Ident{Name: name} }

func lit(n int) *cast.IntLit { return &cast.IntLit{Text: strconv.Itoa(n)} }

func flit(text string) *cast.FloatLit { return &cast.FloatLit{Text: text} }

func str(text string) *cast.StrLit { return &cast.StrLit{Text: "\"" + text + "\""} }

func bin(op string, l, r cast.Expr) *cast.BinaryOp { return &cast.BinaryOp{Op: op, L: l, R: r} }

func asg(l, r cast.Expr) *cast.Assign { return &cast.Assign{Op: "=", L: l, R: r} }

func opAsg(op string, l, r cast.Expr) *cast.Assign { return &cast.Assign{Op: op, L: l, R: r} }

func aref(arr cast.Expr, idx ...cast.Expr) cast.Expr {
	e := arr
	for _, ix := range idx {
		e = &cast.ArrayRef{Arr: e, Index: ix}
	}
	return e
}

func call(name string, args ...cast.Expr) *cast.FuncCall {
	return &cast.FuncCall{Fun: id(name), Args: args}
}

func inc(v string) *cast.UnaryOp {
	return &cast.UnaryOp{Op: "++", X: id(v), Postfix: true}
}

func es(e cast.Expr) *cast.ExprStmt { return &cast.ExprStmt{X: e} }

func block(stmts ...cast.Stmt) *cast.Block { return &cast.Block{Stmts: stmts} }

// forUp builds `for (v = lo; v < hi; v++) body`.
func forUp(v string, lo, hi cast.Expr, body cast.Stmt) *cast.For {
	return &cast.For{
		Init: es(asg(id(v), lo)),
		Cond: bin("<", id(v), hi),
		Post: inc(v),
		Body: body,
	}
}

// forUpIncl builds `for (v = lo; v <= hi; v++) body`.
func forUpIncl(v string, lo, hi cast.Expr, body cast.Stmt) *cast.For {
	f := forUp(v, lo, hi, body)
	f.Cond = bin("<=", id(v), hi)
	return f
}

// forDecl builds `for (int v = lo; v < hi; v++) body`.
func forDecl(v string, lo, hi cast.Expr, body cast.Stmt) *cast.For {
	return &cast.For{
		Init: &cast.DeclStmt{Decls: []*cast.Decl{{
			Type: &cast.TypeSpec{Names: []string{"int"}},
			Name: v,
			Init: lo,
		}}},
		Cond: bin("<", id(v), hi),
		Post: inc(v),
		Body: body,
	}
}

// declStmt builds `type name = init;`.
func declStmt(typ, name string, init cast.Expr) *cast.DeclStmt {
	return &cast.DeclStmt{Decls: []*cast.Decl{{
		Type: &cast.TypeSpec{Names: []string{typ}},
		Name: name,
		Init: init,
	}}}
}

// funcDef builds a function definition with int/double scalar params.
func funcDef(retType, name string, params []*cast.Decl, body ...cast.Stmt) *cast.FuncDef {
	return &cast.FuncDef{
		ReturnType: &cast.TypeSpec{Names: []string{retType}},
		Name:       name,
		Params:     params,
		Body:       block(body...),
	}
}

func param(typ, name string, ptr int) *cast.Decl {
	return &cast.Decl{Type: &cast.TypeSpec{Names: []string{typ}, Ptr: ptr}, Name: name}
}
