package cast

import (
	"bytes"
	"fmt"
	"sync"
)

// Print renders the AST back to C source text. The output is parseable by
// internal/cparse, which the corpus generator relies on: snippets are built
// as ASTs and emitted through this printer, guaranteeing well-formed records.
func Print(n Node) string {
	p := newPrinter()
	p.node(n)
	return p.text(true)
}

// AppendPrint appends exactly what Print renders to dst and returns the
// extended slice; it allocates only when dst has to grow.
func AppendPrint(dst []byte, n Node) []byte {
	p := newPrinter()
	p.node(n)
	dst = append(dst, p.rendering(true)...)
	p.release()
	return dst
}

// PrintExpr renders a single expression.
func PrintExpr(e Expr) string {
	p := newPrinter()
	p.expr(e, precLowest)
	return p.text(false)
}

// Pos is a 1-based line/column position within a Print rendering.
type Pos struct {
	Line, Col int
}

// Positions renders n as Print does and writes to pos[k] the position at
// which targets[k]'s text begins in that rendering; len(pos) must be
// len(targets). A nil target, or one the walk never reaches, gets Pos{}; a
// target printed twice gets its first occurrence, and so does every slot
// that lists it. The rendering goes back to the printer pool unread and the
// targets are indexed in a pooled map, so a warm call allocates nothing and
// a printed node costs one lookup however many targets there are. The
// dependence analyzer uses this to anchor race-witness access sites inside
// the canonical snippet, so positions agree across scan and serve entry
// points regardless of where the loop sat in its original file.
func Positions(n Node, targets []Node, pos []Pos) {
	clear(pos)
	first := targetIndexes.Get().(map[Node]int)
	for k, t := range targets {
		if _, dup := first[t]; t != nil && !dup {
			first[t] = k
		}
	}
	p := newPrinter()
	p.first, p.pos = first, pos
	p.node(n)
	p.release()
	for k, t := range targets {
		if j, ok := first[t]; ok && j != k {
			pos[k] = pos[j]
		}
	}
	clear(first)
	if len(targets) <= maxPooledTargets {
		targetIndexes.Put(first)
	}
}

// targetIndexes holds Positions' maps from a target to its first slot.
// A map keeps its capacity when cleared, so one indexed past
// maxPooledTargets is dropped rather than pinned by the pool.
var targetIndexes = sync.Pool{New: func() any { return map[Node]int{} }}

const maxPooledTargets = 1 << 12

// printer renders into a pooled buffer, so a rendering costs one allocation
// — the returned string, at its final size — however long it grows.
type printer struct {
	b      *bytes.Buffer
	indent int

	// Position tracking for Positions; nil on plain Print.
	first     map[Node]int // each target's first slot in pos
	pos       []Pos
	newlines  int // '\n' bytes written so far
	lineStart int // builder length just after the last newline
}

var printBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

func newPrinter() printer { return printer{b: printBufs.Get().(*bytes.Buffer)} }

// text returns the rendering and gives the buffer back; the printer is done.
func (p *printer) text(endLine bool) string {
	s := string(p.rendering(endLine))
	p.release()
	return s
}

// rendering returns the printed bytes, valid until release. endLine folds
// the trailing newlines into exactly one.
func (p *printer) rendering(endLine bool) []byte {
	out := p.b.Bytes()
	if endLine {
		out = append(bytes.TrimRight(out, "\n"), '\n')
	}
	return out
}

// release gives the buffer back; the printer is done.
func (p *printer) release() {
	p.b.Reset()
	printBufs.Put(p.b)
}

func (p *printer) ws(s string) {
	p.b.WriteString(s)
}

func (p *printer) begin() {
	for i := 0; i < p.indent; i++ {
		p.b.WriteString("    ")
	}
}

func (p *printer) nl() {
	p.b.WriteByte('\n')
	p.newlines++
	p.lineStart = p.b.Len()
}

func (p *printer) line(s string) {
	p.begin()
	p.ws(s)
	p.nl()
}

// mark records the current output position for a target the walk meets
// for the first time.
func (p *printer) mark(n Node) {
	if p.first == nil {
		return
	}
	if k, ok := p.first[n]; ok && p.pos[k] == (Pos{}) {
		p.pos[k] = Pos{Line: p.newlines + 1, Col: p.b.Len() - p.lineStart + 1}
	}
}

func (p *printer) node(n Node) {
	switch v := n.(type) {
	case *File:
		for _, it := range v.Items {
			p.node(it)
		}
	case *FuncDef:
		p.begin()
		p.typ(v.ReturnType)
		p.ws(" ")
		p.ws(v.Name)
		p.ws("(")
		for i, d := range v.Params {
			if i > 0 {
				p.ws(", ")
			}
			p.decl(d)
		}
		if len(v.Params) == 0 {
			p.ws("void")
		}
		p.ws(") {")
		p.nl()
		p.indent++
		for _, s := range v.Body.Stmts {
			p.stmt(s)
		}
		p.indent--
		p.line("}")
	case *Decl:
		p.begin()
		p.decl(v)
		p.ws(";")
		p.nl()
	case Stmt:
		p.stmt(v)
	case Expr:
		p.begin()
		p.expr(v, precLowest)
		p.ws(";")
		p.nl()
	default:
		p.line(fmt.Sprintf("/* unknown node %T */", n))
	}
}

// typ writes a type: its qualifiers, struct or union tag and names, one
// space apart, then a space and its pointer stars.
func (p *printer) typ(t *TypeSpec) {
	if t == nil {
		p.ws("int")
		return
	}
	sep := ""
	for _, q := range t.Quals {
		p.ws(sep)
		p.ws(q)
		sep = " "
	}
	if t.Struct != "" {
		p.ws(sep)
		if t.Union {
			p.ws("union ")
		} else {
			p.ws("struct ")
		}
		p.ws(t.Struct)
		sep = " "
	}
	for _, n := range t.Names {
		p.ws(sep)
		p.ws(n)
		sep = " "
	}
	if t.Ptr > 0 {
		p.ws(" ")
		for range t.Ptr {
			p.b.WriteByte('*')
		}
	}
}

// decl streams a declarator so expressions inside dims and initializers can
// be position-marked. The name follows a type ending in '*' directly.
func (p *printer) decl(d *Decl) {
	if d.IsTypedef {
		p.ws("typedef ")
	}
	start := p.b.Len()
	p.typ(d.Type)
	if d.Name != "" {
		if out := p.b.Bytes(); len(out) > start && out[len(out)-1] == '*' {
			p.ws(d.Name)
		} else {
			p.ws(" ")
			p.ws(d.Name)
		}
	}
	for _, dim := range d.ArrayDims {
		if dim == nil {
			p.ws("[]")
		} else {
			p.ws("[")
			p.expr(dim, precLowest)
			p.ws("]")
		}
	}
	if d.Init != nil {
		p.ws(" = ")
		p.expr(d.Init, precLowest)
	}
}

func (p *printer) stmt(s Stmt) {
	switch v := s.(type) {
	case *Block:
		p.line("{")
		p.indent++
		for _, st := range v.Stmts {
			p.stmt(st)
		}
		p.indent--
		p.line("}")
	case *ExprStmt:
		p.begin()
		p.expr(v.X, precLowest)
		p.ws(";")
		p.nl()
	case *DeclStmt:
		for _, d := range v.Decls {
			p.begin()
			p.decl(d)
			p.ws(";")
			p.nl()
		}
	case *For:
		p.begin()
		p.ws("for (")
		switch iv := v.Init.(type) {
		case *ExprStmt:
			p.expr(iv.X, precLowest)
		case *DeclStmt:
			for i, d := range iv.Decls {
				if i > 0 {
					p.ws(", ")
				}
				p.decl(d)
			}
		}
		p.ws("; ")
		if v.Cond != nil {
			p.expr(v.Cond, precLowest)
		}
		p.ws("; ")
		if v.Post != nil {
			p.expr(v.Post, precLowest)
		}
		p.ws(")")
		p.nl()
		p.body(v.Body)
	case *While:
		p.begin()
		p.ws("while (")
		p.expr(v.Cond, precLowest)
		p.ws(")")
		p.nl()
		p.body(v.Body)
	case *DoWhile:
		p.line("do")
		p.body(v.Body)
		p.begin()
		p.ws("while (")
		p.expr(v.Cond, precLowest)
		p.ws(");")
		p.nl()
	case *If:
		p.begin()
		p.ws("if (")
		p.expr(v.Cond, precLowest)
		p.ws(")")
		p.nl()
		p.body(v.Then)
		if v.Else != nil {
			p.line("else")
			p.body(v.Else)
		}
	case *Return:
		if v.X != nil {
			p.begin()
			p.ws("return ")
			p.expr(v.X, precLowest)
			p.ws(";")
			p.nl()
		} else {
			p.line("return;")
		}
	case *Break:
		p.line("break;")
	case *Continue:
		p.line("continue;")
	case *Empty:
		p.line(";")
	case *PragmaStmt:
		p.line("#" + v.Text)
		if v.Stmt != nil {
			p.stmt(v.Stmt)
		}
	default:
		p.line(fmt.Sprintf("/* unknown stmt %T */", s))
	}
}

// body prints a statement as a loop/if body, indenting non-block statements.
func (p *printer) body(s Stmt) {
	if _, ok := s.(*Block); ok {
		p.stmt(s)
		return
	}
	p.indent++
	p.stmt(s)
	p.indent--
}

// Operator precedence levels for minimal parenthesization.
const (
	precLowest = iota
	precComma
	precAssign
	precTernary
	precLogOr
	precLogAnd
	precBitOr
	precBitXor
	precBitAnd
	precEq
	precRel
	precShift
	precAdd
	precMul
	precUnary
	precPostfix
)

func binPrec(op string) int {
	switch op {
	case "||":
		return precLogOr
	case "&&":
		return precLogAnd
	case "|":
		return precBitOr
	case "^":
		return precBitXor
	case "&":
		return precBitAnd
	case "==", "!=":
		return precEq
	case "<", ">", "<=", ">=":
		return precRel
	case "<<", ">>":
		return precShift
	case "+", "-":
		return precAdd
	case "*", "/", "%":
		return precMul
	}
	return precLowest
}

func (p *printer) expr(e Expr, parent int) {
	p.mark(e)
	switch v := e.(type) {
	case *Ident:
		p.b.WriteString(v.Name)
	case *IntLit:
		p.b.WriteString(v.Text)
	case *FloatLit:
		p.b.WriteString(v.Text)
	case *CharLit:
		p.b.WriteString(v.Text)
	case *StrLit:
		p.b.WriteString(v.Text)
	case *BinaryOp:
		prec := binPrec(v.Op)
		open := prec < parent
		if open {
			p.b.WriteByte('(')
		}
		p.expr(v.L, prec)
		p.b.WriteString(" " + v.Op + " ")
		p.expr(v.R, prec+1)
		if open {
			p.b.WriteByte(')')
		}
	case *Assign:
		open := precAssign < parent
		if open {
			p.b.WriteByte('(')
		}
		p.expr(v.L, precUnary)
		p.b.WriteString(" " + v.Op + " ")
		p.expr(v.R, precAssign)
		if open {
			p.b.WriteByte(')')
		}
	case *UnaryOp:
		open := precUnary < parent
		if open {
			p.b.WriteByte('(')
		}
		if v.Postfix {
			p.expr(v.X, precPostfix)
			p.b.WriteString(v.Op)
		} else {
			p.b.WriteString(v.Op)
			p.expr(v.X, precUnary)
		}
		if open {
			p.b.WriteByte(')')
		}
	case *ArrayRef:
		p.expr(v.Arr, precPostfix)
		p.b.WriteByte('[')
		p.expr(v.Index, precLowest)
		p.b.WriteByte(']')
	case *FuncCall:
		p.expr(v.Fun, precPostfix)
		p.b.WriteByte('(')
		for i, a := range v.Args {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(a, precAssign)
		}
		p.b.WriteByte(')')
	case *Member:
		p.expr(v.X, precPostfix)
		if v.Arrow {
			p.b.WriteString("->")
		} else {
			p.b.WriteString(".")
		}
		p.b.WriteString(v.Field)
	case *Ternary:
		open := precTernary < parent
		if open {
			p.b.WriteByte('(')
		}
		p.expr(v.Cond, precLogOr)
		p.b.WriteString(" ? ")
		p.expr(v.Then, precAssign)
		p.b.WriteString(" : ")
		p.expr(v.Else, precTernary)
		if open {
			p.b.WriteByte(')')
		}
	case *Cast:
		open := precUnary < parent
		if open {
			p.b.WriteByte('(')
		}
		p.b.WriteByte('(')
		p.typ(v.Type)
		p.b.WriteString(") ")
		p.expr(v.X, precUnary)
		if open {
			p.b.WriteByte(')')
		}
	case *Sizeof:
		if v.Type != nil {
			p.b.WriteString("sizeof(")
			p.typ(v.Type)
			p.b.WriteByte(')')
		} else {
			p.b.WriteString("sizeof(")
			p.expr(v.X, precLowest)
			p.b.WriteByte(')')
		}
	case *Comma:
		open := precComma < parent
		if open {
			p.b.WriteByte('(')
		}
		p.expr(v.L, precComma)
		p.b.WriteString(", ")
		p.expr(v.R, precAssign)
		if open {
			p.b.WriteByte(')')
		}
	case *InitList:
		p.b.WriteByte('{')
		for i, el := range v.Elems {
			if i > 0 {
				p.b.WriteString(", ")
			}
			p.expr(el, precAssign)
		}
		p.b.WriteByte('}')
	default:
		fmt.Fprintf(p.b, "/* unknown expr %T */", e)
	}
}
