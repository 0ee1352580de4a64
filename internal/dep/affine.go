package dep

import (
	"encoding/json"
	"slices"
	"strconv"
	"strings"

	"pragformer/internal/cast"
)

// Affine represents a subscript expression in the canonical form
//
//	Coef*loopVar + Const + Σ K*Name over SymCoefs
//
// over a designated loop variable, with all other identifiers kept as
// symbolic terms. Affine forms drive the ZIV/SIV/GCD dependence tests the
// way Banerjee-style tests do inside Cetus and AutoPar.
type Affine struct {
	Coef     int64     // coefficient of the loop variable
	Const    int64     // integer constant part
	SymCoefs []SymCoef // other identifiers, sorted by name, no zero K; nil when none
	OK       bool      // false when the expression is not affine
}

// SymCoef is one symbolic term of an affine form: K times the identifier
// (or opaque call/member print) Name.
type SymCoef struct {
	Name string
	K    int64
}

// MarshalJSON prints the form as it printed when SymCoefs was a map: an
// object keyed by name, {} for an affine form without symbols and null for
// a non-affine one.
func (a Affine) MarshalJSON() ([]byte, error) {
	var syms map[string]int64
	if a.OK {
		syms = make(map[string]int64, len(a.SymCoefs))
		for _, s := range a.SymCoefs {
			syms[s.Name] = s.K
		}
	}
	return json.Marshal(struct {
		Coef, Const int64
		SymCoefs    map[string]int64
		OK          bool
	}{a.Coef, a.Const, syms, a.OK})
}

// The operations below build forms bottom-up for ToAffine, which hands each
// operand to exactly one operation and never looks at it again. So an
// operation consumes its operands: the result may share an operand's
// SymCoefs, and neg and scale rewrite it in place. A form without symbols
// allocates nothing, and only a sum of two forms that both have symbols
// allocates a merged slice.

func (a Affine) add(b Affine) Affine {
	if !a.OK || !b.OK {
		return Affine{}
	}
	r := Affine{Coef: a.Coef + b.Coef, Const: a.Const + b.Const, OK: true}
	switch {
	case len(b.SymCoefs) == 0:
		r.SymCoefs = a.SymCoefs
	case len(a.SymCoefs) == 0:
		r.SymCoefs = b.SymCoefs
	default:
		syms := mergeSyms(make([]SymCoef, 0, len(a.SymCoefs)+len(b.SymCoefs)), a.SymCoefs, b.SymCoefs)
		if len(syms) > 0 {
			r.SymCoefs = syms
		}
	}
	return r
}

// mergeSyms appends to out the sum of two sorted term lists, dropping the
// terms that cancel. out must have room for both lists.
func mergeSyms(out, x, y []SymCoef) []SymCoef {
	for len(x) > 0 && len(y) > 0 {
		switch c := strings.Compare(x[0].Name, y[0].Name); {
		case c < 0:
			out, x = append(out, x[0]), x[1:]
		case c > 0:
			out, y = append(out, y[0]), y[1:]
		default:
			if k := x[0].K + y[0].K; k != 0 {
				out = append(out, SymCoef{x[0].Name, k})
			}
			x, y = x[1:], y[1:]
		}
	}
	return append(append(out, x...), y...)
}

func (a Affine) neg() Affine { return a.scale(-1) }

func (a Affine) scale(c int64) Affine {
	if !a.OK {
		return Affine{}
	}
	syms := a.SymCoefs
	for i := range syms {
		syms[i].K *= c
	}
	if syms = slices.DeleteFunc(syms, func(s SymCoef) bool { return s.K == 0 }); len(syms) == 0 {
		syms = nil
	}
	return Affine{Coef: a.Coef * c, Const: a.Const * c, SymCoefs: syms, OK: true}
}

// constOnly reports whether the form has no loop-variable and no symbols.
func (a Affine) constOnly() bool { return a.OK && a.Coef == 0 && len(a.SymCoefs) == 0 }

// sameSymbols reports whether two forms have identical symbolic parts, a
// precondition for exact distance computation.
func (a Affine) sameSymbols(b Affine) bool { return slices.Equal(a.SymCoefs, b.SymCoefs) }

// symbol is the form 1·name.
func symbol(name string) Affine {
	return Affine{SymCoefs: []SymCoef{{Name: name, K: 1}}, OK: true}
}

// parseIntLit reads a C integer literal, with or without a u/l suffix.
func parseIntLit(text string) (int64, error) {
	return strconv.ParseInt(strings.TrimRight(text, "uUlL"), 0, 64)
}

// ToAffine converts expression e into affine form over loopVar. Any
// construct outside {+,-,*,parenthesization, integer literals, identifiers,
// unary minus, casts} yields a non-affine result (OK == false), which the
// dependence tests treat conservatively.
func ToAffine(e cast.Expr, loopVar string) Affine {
	switch v := e.(type) {
	case *cast.IntLit:
		n, err := parseIntLit(v.Text)
		if err != nil {
			return Affine{}
		}
		return Affine{Const: n, OK: true}
	case *cast.Ident:
		if v.Name == loopVar {
			return Affine{Coef: 1, OK: true}
		}
		return symbol(v.Name)
	case *cast.BinaryOp:
		l := ToAffine(v.L, loopVar)
		r := ToAffine(v.R, loopVar)
		switch v.Op {
		case "+":
			return l.add(r)
		case "-":
			return l.add(r.neg())
		case "*":
			if l.constOnly() {
				return r.scale(l.Const)
			}
			if r.constOnly() {
				return l.scale(r.Const)
			}
			return Affine{}
		}
		return Affine{}
	case *cast.UnaryOp:
		if v.Op == "-" && !v.Postfix {
			return ToAffine(v.X, loopVar).neg()
		}
		if v.Op == "+" && !v.Postfix {
			return ToAffine(v.X, loopVar)
		}
		return Affine{}
	case *cast.Cast:
		return ToAffine(v.X, loopVar)
	case *cast.FuncCall:
		// Pure bound macros (POLYBENCH_LOOP_BOUND(4000, n)) act as opaque
		// loop-invariant symbols keyed by their printed form, so identical
		// bounds compare equal in dependence tests.
		if fn, ok := v.Fun.(*cast.Ident); ok && pureFuncs[fn.Name] {
			return symbol("call:" + cast.PrintExpr(v))
		}
		return Affine{}
	case *cast.Member:
		// Loop-invariant struct reads (image->colors) as opaque symbols.
		return symbol("member:" + cast.PrintExpr(v))
	}
	return Affine{}
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}
