package dep

import (
	"slices"
	"strings"

	"pragformer/internal/cast"
)

// This file grows the one-level ZIV/SIV/GCD classifier into a nested-loop
// dependence engine: the analyzed loop plus every normalized inner loop form
// an iteration space, subscripts become multi-variable affine forms, and
// pairwise tests produce per-level distance information that decides whether
// a dependence is carried by the *outer* loop (the one we would annotate) or
// only by an inner level, where it cannot break a `parallel for`.

// nestSpace is the iteration space of the analyzed loop nest. Slot 0 is the
// outer (annotated) loop's variable; further slots are the variables of
// normalized inner loops in first-seen order. Sibling loops reusing a
// variable with identical headers merge into one slot; conflicting reuses
// keep the slot but lose bounds. Every form below is dense over the slots:
// nest depth is a handful, so a form is a few integers.
type nestSpace struct {
	vars    []string     // slot → variable name
	headers []LoopHeader // slot → normalized header
	// levels maps nest level → slot. It is the identity unless an inner loop
	// reuses the analyzed loop's own variable: then both levels share slot 0.
	levels  []int
	varying map[string]bool // non-nest names that change between iterations

	// Slabs the forms of one analysis are carved from (see workspace).
	coefs []nvCoef
	syms  []SymCoef
	// Distance vector of the access pair under test, one entry per slot.
	dist  []int64
	known []bool
}

func (ns *nestSpace) build(h LoopHeader, ctx *collector) {
	ns.vars = append(ns.vars, h.Var)
	ns.headers = append(ns.headers, h)
	ns.levels = append(ns.levels, 0)
	for _, v := range ctx.nestOrder {
		if v == h.Var {
			// An inner loop over the analyzed loop's own variable: a second
			// level of slot 0, which takes the inner header's bounds.
			ns.headers[0] = ctx.nestHeaders[v]
			ns.levels = append(ns.levels, 0)
			continue
		}
		ns.levels = append(ns.levels, len(ns.vars))
		ns.vars = append(ns.vars, v)
		ns.headers = append(ns.headers, ctx.nestHeaders[v])
	}
	if ns.varying == nil {
		ns.varying = map[string]bool{}
	}
	ctx.varyingNames(ns)
	ns.dist = slices.Grow(ns.dist, len(ns.vars))[:len(ns.vars)]
	ns.known = slices.Grow(ns.known, len(ns.vars))[:len(ns.vars)]
}

func (ns *nestSpace) reset() {
	clear(ns.varying)
	*ns = nestSpace{
		vars: zero(ns.vars), headers: zero(ns.headers), levels: ns.levels[:0],
		varying: ns.varying, coefs: zero(ns.coefs), syms: zero(ns.syms),
		dist: ns.dist[:0], known: ns.known[:0],
	}
}

// slot returns the coefficient slot of a nest variable, -1 for other names.
func (ns *nestSpace) slot(name string) int { return slices.Index(ns.vars, name) }

// nvCoef is the coefficient of one nest variable inside a subscript: K when
// Sym is empty, K*Sym otherwise (the `i*n + j` linearization shape). Bad
// marks coefficients outside that single-term language. The zero value is
// "the variable does not occur".
type nvCoef struct {
	K   int64
	Sym string
	Bad bool
}

// coef builds a well-formed coefficient; a zero one is the absent value.
func coef(k int64, sym string) nvCoef {
	if k == 0 {
		return nvCoef{}
	}
	return nvCoef{K: k, Sym: sym}
}

// nAffine is a subscript over the whole nest:
//
//	Σ Coefs[slot]·var + Σ Syms[i].K·Syms[i].Name + Const
//
// Syms is sorted by name and holds no zero term, so equal symbolic parts are
// equal slices. Varying marks forms referencing a symbol whose value may
// differ between iterations (body-written scalars, body-declared locals);
// such symbols cancel positionally but never prove independence across
// iterations.
type nAffine struct {
	Coefs   []nvCoef
	Syms    []SymCoef
	Const   int64
	Varying bool
	OK      bool
}

func (ns *nestSpace) nZero() nAffine {
	return nAffine{Coefs: carve(&ns.coefs, len(ns.vars)), OK: true}
}

// nSym is the form 1·name.
func (ns *nestSpace) nSym(name string, varying bool) nAffine {
	r := ns.nZero()
	r.Syms = carve(&ns.syms, 1)
	r.Syms[0] = SymCoef{Name: name, K: 1}
	r.Varying = varying
	return r
}

func (ns *nestSpace) nAdd(x, y nAffine) nAffine {
	if !x.OK || !y.OK {
		return nAffine{}
	}
	r := ns.nZero()
	r.Const = x.Const + y.Const
	r.Varying = x.Varying || y.Varying
	for s := range r.Coefs {
		p, c := x.Coefs[s], y.Coefs[s]
		switch {
		case c == nvCoef{}:
			r.Coefs[s] = p
		case p == nvCoef{}:
			r.Coefs[s] = c
		case p.Bad || c.Bad || p.Sym != c.Sym:
			r.Coefs[s] = nvCoef{Bad: true}
		default:
			r.Coefs[s] = coef(p.K+c.K, c.Sym)
		}
	}
	r.Syms = mergeSyms(carve(&ns.syms, len(x.Syms)+len(y.Syms))[:0], x.Syms, y.Syms)
	return r
}

func (ns *nestSpace) nNeg(x nAffine) nAffine { return ns.nScale(x, -1) }

func (ns *nestSpace) nScale(x nAffine, c int64) nAffine {
	if !x.OK {
		return nAffine{}
	}
	r := ns.nZero()
	r.Varying = x.Varying
	r.Const = x.Const * c
	for s, co := range x.Coefs {
		if co.Bad {
			r.Coefs[s] = co
			continue
		}
		r.Coefs[s] = coef(co.K*c, co.Sym)
	}
	r.Syms = carve(&ns.syms, len(x.Syms))[:0]
	for _, t := range x.Syms {
		if k := t.K * c; k != 0 {
			r.Syms = append(r.Syms, SymCoef{Name: t.Name, K: k})
		}
	}
	return r
}

// nMulSym multiplies by a single invariant symbol.
func (ns *nestSpace) nMulSym(x nAffine, sym string, varying bool) nAffine {
	if !x.OK {
		return nAffine{}
	}
	r := ns.nZero()
	r.Varying = x.Varying || varying
	for s, co := range x.Coefs {
		switch {
		case co == nvCoef{}:
		case co.Bad || co.Sym != "":
			r.Coefs[s] = nvCoef{Bad: true}
		default:
			r.Coefs[s] = nvCoef{K: co.K, Sym: sym}
		}
	}
	r.Syms = carve(&ns.syms, len(x.Syms)+1)[:0]
	for _, t := range x.Syms {
		name := t.Name + "*" + sym
		if sym < t.Name {
			name = sym + "*" + t.Name
		}
		r.Syms = addSym(r.Syms, name, t.K)
	}
	if x.Const != 0 {
		r.Syms = addSym(r.Syms, sym, x.Const)
	}
	return r
}

// addSym adds k·name into a sorted term list within its capacity.
func addSym(terms []SymCoef, name string, k int64) []SymCoef {
	i, found := slices.BinarySearchFunc(terms, name, func(t SymCoef, n string) int {
		return strings.Compare(t.Name, n)
	})
	switch {
	case !found:
		return slices.Insert(terms, i, SymCoef{Name: name, K: k})
	case terms[i].K+k == 0:
		return slices.Delete(terms, i, i+1)
	}
	terms[i].K += k
	return terms
}

// invariant reports whether the form involves no nest variable.
func (x nAffine) invariant() bool {
	if !x.OK {
		return false
	}
	for _, c := range x.Coefs {
		if c != (nvCoef{}) {
			return false
		}
	}
	return true
}

func (x nAffine) sameSyms(y nAffine) bool { return slices.Equal(x.Syms, y.Syms) }

// symVarying reports whether e mentions an iteration-varying name.
func (ns *nestSpace) symVarying(e cast.Expr) bool {
	varying := false
	cast.Walk(e, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok && ns.varying[id.Name] {
			varying = true
			return false
		}
		return !varying
	})
	return varying
}

// form converts one subscript into nest-wide affine form and keeps only the
// result on the slabs: the intermediates of affine's recursion are dropped.
func (ns *nestSpace) form(e cast.Expr) nAffine {
	coefMark, symMark := len(ns.coefs), len(ns.syms)
	x := ns.affine(e)
	x.Coefs = compact(&ns.coefs, coefMark, x.Coefs)
	x.Syms = compact(&ns.syms, symMark, x.Syms)
	return x
}

// affine converts a subscript expression into nest-wide affine form.
func (ns *nestSpace) affine(e cast.Expr) nAffine {
	switch v := e.(type) {
	case *cast.IntLit:
		n, err := parseIntLit(v.Text)
		if err != nil {
			return nAffine{}
		}
		r := ns.nZero()
		r.Const = n
		return r
	case *cast.Ident:
		if s := ns.slot(v.Name); s >= 0 {
			r := ns.nZero()
			r.Coefs[s] = nvCoef{K: 1}
			return r
		}
		return ns.nSym(v.Name, ns.varying[v.Name])
	case *cast.BinaryOp:
		l := ns.affine(v.L)
		r := ns.affine(v.R)
		switch v.Op {
		case "+":
			return ns.nAdd(l, r)
		case "-":
			return ns.nAdd(l, ns.nNeg(r))
		case "*":
			if !l.OK || !r.OK {
				return nAffine{}
			}
			if l.invariant() && len(l.Syms) == 0 {
				return ns.nScale(r, l.Const)
			}
			if r.invariant() && len(r.Syms) == 0 {
				return ns.nScale(l, r.Const)
			}
			// One side a single invariant symbol with unit coefficient and
			// no constant: the `i*n` linearization shape.
			if s, varying, ok := singleSym(l); ok {
				return ns.nMulSym(r, s, varying)
			}
			if s, varying, ok := singleSym(r); ok {
				return ns.nMulSym(l, s, varying)
			}
			return nAffine{}
		}
		return nAffine{}
	case *cast.UnaryOp:
		if v.Op == "-" && !v.Postfix {
			return ns.nNeg(ns.affine(v.X))
		}
		if v.Op == "+" && !v.Postfix {
			return ns.affine(v.X)
		}
		return nAffine{}
	case *cast.Cast:
		return ns.affine(v.X)
	case *cast.FuncCall:
		if fn, ok := v.Fun.(*cast.Ident); ok && pureFuncs[fn.Name] {
			return ns.nSym("call:"+cast.PrintExpr(v), ns.symVarying(v))
		}
		return nAffine{}
	case *cast.Member:
		return ns.nSym("member:"+cast.PrintExpr(v), ns.symVarying(v))
	}
	return nAffine{}
}

func singleSym(x nAffine) (sym string, varying bool, ok bool) {
	if !x.invariant() || x.Const != 0 || len(x.Syms) != 1 || x.Syms[0].K != 1 {
		return "", false, false
	}
	return x.Syms[0].Name, x.Varying, true
}

// ---------------------------------------------------------------------------
// Pairwise testing
// ---------------------------------------------------------------------------

// dimRel is what one subscript dimension says about the iteration distance
// between two accesses: proof of independence, exact distances for up to two
// variables (delinearization pins two, every other test one), or nothing (a
// free dimension).
type dimRel struct {
	none bool
	n    int
	slot [2]int
	dist [2]int64
}

func freeDim() dimRel { return dimRel{} }

func pinned(slot int, dist int64) dimRel {
	return dimRel{n: 1, slot: [2]int{slot}, dist: [2]int64{dist}}
}

// pairRel merges the dimensions of one access pair: per slot, whether the
// iteration distance is known and its value. The vectors are the nest
// space's own and hold until the next pairTest.
type pairRel struct {
	none  bool
	dist  []int64
	known []bool
}

// dimTest analyzes one subscript dimension of a write/other pair.
func (ns *nestSpace) dimTest(w, r nAffine) dimRel {
	if !w.OK || !r.OK {
		return freeDim()
	}
	// Symbolic addends must cancel exactly and be iteration-invariant;
	// otherwise the dimension proves nothing either way.
	if !w.sameSyms(r) || w.Varying || r.Varying {
		return freeDim()
	}
	delta := w.Const - r.Const // Σ cr·u − Σ cw·t = Δ at a collision

	// The slots either side involves, once per nest level. Depth is a handful,
	// so the list stays in this frame.
	var buf [8]int
	vars := buf[:0]
	symbolic := false
	for _, s := range ns.levels {
		cw, cr := w.Coefs[s], r.Coefs[s]
		if cw == (nvCoef{}) && cr == (nvCoef{}) {
			continue
		}
		if cw.Bad || cr.Bad || cw.Sym != "" || cr.Sym != "" {
			symbolic = true
		}
		vars = append(vars, s)
	}

	if symbolic {
		return ns.delinearize(w, r, vars, delta)
	}

	if len(vars) == 0 {
		// ZIV: both sides loop-invariant.
		if delta != 0 {
			return dimRel{none: true}
		}
		return freeDim() // same cell every iteration: no constraint, no proof
	}

	if len(vars) == 1 {
		s := vars[0]
		cw, cr := w.Coefs[s].K, r.Coefs[s].K
		if cw == cr {
			return ns.strongSIV(s, cw, delta)
		}
		return ns.weakSIV(s, cw, cr, delta)
	}

	// MIV: GCD then Banerjee bounds over the whole box.
	g := int64(0)
	for _, s := range vars {
		g = gcd64(gcd64(g, abs64(w.Coefs[s].K)), abs64(r.Coefs[s].K))
	}
	if g != 0 && delta%g != 0 {
		return dimRel{none: true}
	}
	if refuted := ns.banerjeeRefute(w, r, vars, delta); refuted {
		return dimRel{none: true}
	}
	if rel, ok := ns.banerjeePinOuter(w, r, vars, delta); ok {
		return rel
	}
	return freeDim()
}

// strongSIV handles equal coefficients: an exact value distance, converted
// to an iteration distance through the level's step, refuted when the step
// cannot reach it or the trip count is too short.
func (ns *nestSpace) strongSIV(s int, c, delta int64) dimRel {
	if delta%c != 0 {
		return dimRel{none: true}
	}
	dValue := delta / c
	h := ns.headers[s]
	if !h.OK || h.Step == 0 {
		if dValue == 0 {
			return pinned(s, 0)
		}
		return freeDim()
	}
	if dValue%h.Step != 0 {
		return dimRel{none: true} // the variable never moves by that amount
	}
	dIter := dValue / h.Step
	if trip := h.TripCount(); trip >= 0 && abs64(dIter) >= trip {
		return dimRel{none: true} // distance exceeds the iteration range
	}
	return pinned(s, dIter)
}

// delinearize recognizes the `base[i*n + j]` linearized-2D shape on both
// sides: identical coefficients, a unit symbolic coefficient on the slower
// variable matching the faster variable's exact [0, n) unit-step range, and
// no residual constant. Such a dimension behaves like base[i][j].
func (ns *nestSpace) delinearize(w, r nAffine, vars []int, delta int64) dimRel {
	if delta != 0 || len(vars) != 2 {
		return freeDim()
	}
	for _, s := range vars {
		if w.Coefs[s] != r.Coefs[s] || w.Coefs[s].Bad {
			return freeDim()
		}
	}
	slow, fast := vars[0], vars[1]
	if w.Coefs[slow].Sym == "" {
		slow, fast = fast, slow
	}
	cs, cf := w.Coefs[slow], w.Coefs[fast]
	if cs.Sym == "" || cs.K != 1 || cf.Sym != "" || cf.K != 1 {
		return freeDim()
	}
	h := ns.headers[fast]
	if !h.OK || h.Step != 1 || h.Inclusive {
		return freeDim()
	}
	if !h.Lower.constOnly() || h.Lower.Const != 0 {
		return freeDim()
	}
	up := h.Upper
	if !up.OK || up.Coef != 0 || up.Const != 0 || len(up.SymCoefs) != 1 || up.SymCoefs[0] != (SymCoef{Name: cs.Sym, K: 1}) {
		return freeDim()
	}
	return dimRel{n: 2, slot: [2]int{slow, fast}}
}

// pairTest merges all dimensions of one access pair into distance facts.
func (ns *nestSpace) pairTest(w, r []nAffine) pairRel {
	rel := pairRel{dist: ns.dist, known: ns.known}
	clear(rel.known)
	if len(w) != len(r) {
		return rel // differing dimensionality: no information
	}
	for d := range w {
		dr := ns.dimTest(w[d], r[d])
		if dr.none {
			return pairRel{none: true}
		}
		for i := 0; i < dr.n; i++ {
			s, dist := dr.slot[i], dr.dist[i]
			if rel.known[s] && rel.dist[s] != dist {
				// Two dimensions demand different distances: unsatisfiable.
				return pairRel{none: true}
			}
			rel.dist[s], rel.known[s] = dist, true
		}
	}
	return rel
}
