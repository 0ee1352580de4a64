package dep

import (
	"strconv"
	"strings"

	"pragformer/internal/cast"
)

// Affine represents a subscript expression in the canonical form
//
//	Coef*loopVar + Const + Σ SymCoefs[s]*s
//
// over a designated loop variable, with all other identifiers kept as
// symbolic terms. Affine forms drive the ZIV/SIV/GCD dependence tests the
// way Banerjee-style tests do inside Cetus and AutoPar.
type Affine struct {
	Coef     int64            // coefficient of the loop variable
	Const    int64            // integer constant part
	SymCoefs map[string]int64 // coefficients of other identifiers
	OK       bool             // false when the expression is not affine
}

// affineZero returns an affine form representing 0.
func affineZero() Affine {
	return Affine{SymCoefs: map[string]int64{}, OK: true}
}

func (a Affine) add(b Affine) Affine {
	if !a.OK || !b.OK {
		return Affine{}
	}
	r := affineZero()
	r.Coef = a.Coef + b.Coef
	r.Const = a.Const + b.Const
	for k, v := range a.SymCoefs {
		r.SymCoefs[k] += v
	}
	for k, v := range b.SymCoefs {
		r.SymCoefs[k] += v
	}
	r.normalize()
	return r
}

func (a Affine) neg() Affine {
	if !a.OK {
		return Affine{}
	}
	r := affineZero()
	r.Coef = -a.Coef
	r.Const = -a.Const
	for k, v := range a.SymCoefs {
		r.SymCoefs[k] = -v
	}
	return r
}

func (a Affine) scale(c int64) Affine {
	if !a.OK {
		return Affine{}
	}
	r := affineZero()
	r.Coef = a.Coef * c
	r.Const = a.Const * c
	for k, v := range a.SymCoefs {
		r.SymCoefs[k] = v * c
	}
	r.normalize()
	return r
}

func (a *Affine) normalize() {
	for k, v := range a.SymCoefs {
		if v == 0 {
			delete(a.SymCoefs, k)
		}
	}
}

// constOnly reports whether the form has no loop-variable and no symbols.
func (a Affine) constOnly() bool { return a.OK && a.Coef == 0 && len(a.SymCoefs) == 0 }

// sameSymbols reports whether two forms have identical symbolic parts, a
// precondition for exact distance computation.
func (a Affine) sameSymbols(b Affine) bool {
	if len(a.SymCoefs) != len(b.SymCoefs) {
		return false
	}
	for k, v := range a.SymCoefs {
		if b.SymCoefs[k] != v {
			return false
		}
	}
	return true
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
		a := affineZero()
		a.Const = n
		return a
	case *cast.Ident:
		a := affineZero()
		if v.Name == loopVar {
			a.Coef = 1
		} else {
			a.SymCoefs[v.Name] = 1
		}
		return a
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
			a := affineZero()
			a.SymCoefs["call:"+cast.PrintExpr(v)] = 1
			return a
		}
		return Affine{}
	case *cast.Member:
		// Loop-invariant struct reads (image->colors) as opaque symbols.
		a := affineZero()
		a.SymCoefs["member:"+cast.PrintExpr(v)] = 1
		return a
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
