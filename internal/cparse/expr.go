package cparse

import (
	"pragformer/internal/cast"
	"pragformer/internal/clex"
)

// Precedence levels for the expression parser, mirroring cast's printer.
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

var binaryPrec = map[string]int{
	"||": precLogOr, "&&": precLogAnd,
	"|": precBitOr, "^": precBitXor, "&": precBitAnd,
	"==": precEq, "!=": precEq,
	"<": precRel, ">": precRel, "<=": precRel, ">=": precRel,
	"<<": precShift, ">>": precShift,
	"+": precAdd, "-": precAdd,
	"*": precMul, "/": precMul, "%": precMul,
}

var assignOps = map[string]bool{
	"=": true, "+=": true, "-=": true, "*=": true, "/=": true,
	"%=": true, "&=": true, "|=": true, "^=": true, "<<=": true, ">>=": true,
}

// parseExpr parses expressions with precedence at least minPrec.
// minPrec == precLowest permits the comma operator.
func (p *Parser) parseExpr(minPrec int) (cast.Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	return p.parseBinaryRHS(lhs, minPrec)
}

func (p *Parser) parseBinaryRHS(lhs cast.Expr, minPrec int) (cast.Expr, error) {
	for {
		t := p.cur()
		if t.Kind != clex.Punct {
			return lhs, nil
		}
		// Assignment (right associative).
		if assignOps[t.Text] {
			if precAssign < minPrec {
				return lhs, nil
			}
			op := p.next().Text
			rhs, err := p.parseExpr(precAssign)
			if err != nil {
				return nil, err
			}
			lhs = put(&p.assigns, cast.Assign{Op: op, L: lhs, R: rhs})
			continue
		}
		// Ternary (right associative).
		if t.Text == "?" {
			if precTernary < minPrec {
				return lhs, nil
			}
			p.next()
			then, err := p.parseExpr(precAssign)
			if err != nil {
				return nil, err
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			els, err := p.parseExpr(precTernary)
			if err != nil {
				return nil, err
			}
			lhs = &cast.Ternary{Cond: lhs, Then: then, Else: els}
			continue
		}
		// Comma.
		if t.Text == "," {
			if precComma < minPrec {
				return lhs, nil
			}
			p.next()
			rhs, err := p.parseExpr(precAssign)
			if err != nil {
				return nil, err
			}
			lhs = &cast.Comma{L: lhs, R: rhs}
			continue
		}
		prec, ok := binaryPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		op := p.next().Text
		rhs, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		rhs, err = p.parseBinaryRHSAbove(rhs, prec)
		if err != nil {
			return nil, err
		}
		lhs = put(&p.binarys, cast.BinaryOp{Op: op, L: lhs, R: rhs})
	}
}

// parseBinaryRHSAbove folds in operators binding tighter than prec
// (left associativity for same-precedence operators).
func (p *Parser) parseBinaryRHSAbove(lhs cast.Expr, prec int) (cast.Expr, error) {
	return p.parseBinaryRHS(lhs, prec+1)
}

func (p *Parser) parseUnary() (cast.Expr, error) {
	t := p.cur()
	switch {
	case t.Text == "++" || t.Text == "--" ||
		t.Text == "+" || t.Text == "-" || t.Text == "!" || t.Text == "~" || t.Text == "*" || t.Text == "&":
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return put(&p.unarys, cast.UnaryOp{Op: t.Text, X: x}), nil
	case t.Text == "sizeof":
		p.next()
		if p.cur().Text == "(" && p.isTypeStart(1) {
			p.next()
			ts, err := p.parseTypeSpec()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return put(&p.sizeofs, cast.Sizeof{Type: ts}), nil
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return put(&p.sizeofs, cast.Sizeof{X: x}), nil
	case t.Text == "(" && p.isTypeStart(1):
		// Cast expression `(type) expr`.
		p.next()
		ts, err := p.parseTypeSpec()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return put(&p.casts, cast.Cast{Type: ts, X: x}), nil
	}
	return p.parsePostfix()
}

// isTypeStart reports whether the token at offset off begins a type name —
// used to disambiguate casts from parenthesized expressions.
func (p *Parser) isTypeStart(off int) bool {
	t := p.at(off)
	if t.Kind == clex.Keyword {
		switch t.Text {
		case "int", "char", "float", "double", "long", "short", "signed",
			"unsigned", "void", "const", "volatile", "struct", "union", "register":
			return true
		}
		return false
	}
	if t.Kind == clex.Ident && p.isTypedef(t.Text) {
		// `(size_t) x` is a cast; `(n) + 1` is not. Require ')' or '*' next.
		n := p.at(off + 1)
		return n.Text == ")" || n.Text == "*"
	}
	return false
}

func (p *Parser) parsePostfix() (cast.Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch t.Text {
		case "[":
			p.next()
			idx, err := p.parseExpr(precLowest)
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = put(&p.arrays, cast.ArrayRef{Arr: x, Index: idx})
		case "(":
			p.next()
			mark := len(p.args)
			if p.cur().Text != ")" {
				for {
					a, err := p.parseExpr(precAssign)
					if err != nil {
						return nil, err
					}
					p.args = append(p.args, a)
					if !p.accept(",") {
						break
					}
				}
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			x = put(&p.calls, cast.FuncCall{Fun: x, Args: pop(&p.argLists, &p.args, mark)})
		case ".", "->":
			p.next()
			if p.cur().Kind != clex.Ident {
				return nil, p.errorf("expected member name after %q", t.Text)
			}
			x = put(&p.members, cast.Member{X: x, Field: p.next().Text, Arrow: t.Text == "->"})
		case "++", "--":
			p.next()
			x = put(&p.unarys, cast.UnaryOp{Op: t.Text, X: x, Postfix: true})
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (cast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case clex.Ident, clex.Keyword:
		if t.Kind == clex.Keyword && t.Text != "sizeof" {
			return nil, p.errorf("unexpected keyword %q in expression", t.Text)
		}
		p.next()
		return put(&p.idents, cast.Ident{Name: t.Text}), nil
	case clex.IntLit:
		p.next()
		return put(&p.ints, cast.IntLit{Text: t.Text}), nil
	case clex.FloatLit:
		p.next()
		return put(&p.floats, cast.FloatLit{Text: t.Text}), nil
	case clex.CharLit:
		p.next()
		return &cast.CharLit{Text: t.Text}, nil
	case clex.StringLit:
		p.next()
		return put(&p.strs, cast.StrLit{Text: t.Text}), nil
	case clex.Punct:
		if t.Text == "(" {
			p.next()
			e, err := p.parseExpr(precLowest)
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, p.errorf("unexpected token %q in expression", t.Text)
}
