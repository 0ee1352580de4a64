package dep

// Banerjee-style bounds testing: when GCD divisibility cannot refute a
// dependence, interval arithmetic over the nest's constant header bounds
// often can — and with direction constraints (source iteration equal to /
// different from sink iteration) it can additionally pin a dependence to
// distance zero at a level, turning "maybe carried" into "loop-independent".
// Symbolic bounds stay conservative: a variable without constant bounds
// contributes an unbounded term and the test declines to refute.

// rng is an inclusive integer interval accumulator.
type rng struct {
	lo, hi int64
	ok     bool
}

func emptyRng() rng { return rng{ok: true} }

// addTerm widens the interval by c*x for x in [lo, hi].
func (r rng) addTerm(c, lo, hi int64) rng {
	if !r.ok || c == 0 {
		return r
	}
	a, b := c*lo, c*hi
	if a > b {
		a, b = b, a
	}
	return rng{lo: r.lo + a, hi: r.hi + b, ok: true}
}

func (r rng) contains(x int64) bool { return r.ok && x >= r.lo && x <= r.hi }

// varBounds returns the inclusive range of values the nest variable in slot
// s takes, available only when its header bounds are integer constants.
func (ns *nestSpace) varBounds(s int) (lo, hi int64, ok bool) {
	h := ns.headers[s]
	if !h.OK || !h.Lower.constOnly() || !h.Upper.constOnly() || h.Step == 0 {
		return 0, 0, false
	}
	trip := h.TripCount()
	if trip <= 0 {
		return 0, 0, false
	}
	first := h.Lower.Const
	last := first + (trip-1)*h.Step
	if first > last {
		first, last = last, first
	}
	return first, last, true
}

// reachable reports whether value x is one of the values slot s steps through.
func (ns *nestSpace) reachable(s int, x int64) bool {
	h := ns.headers[s]
	if !h.OK || h.Step == 0 {
		return true // unknown stepping: assume reachable
	}
	lo, hi, ok := ns.varBounds(s)
	if ok && (x < lo || x > hi) {
		return false
	}
	return (x-h.Lower.Const)%h.Step == 0
}

// banerjeeRefute computes the range of Σ cr_v·u_v − Σ cw_v·t_v over the
// nest's constant bounds and reports true when delta falls outside it —
// i.e. the collision equation has no solution at all.
func (ns *nestSpace) banerjeeRefute(w, r nAffine, vars []int, delta int64) bool {
	acc := emptyRng()
	for _, s := range vars {
		lo, hi, ok := ns.varBounds(s)
		if !ok {
			return false // symbolic bounds: decline to refute
		}
		acc = acc.addTerm(r.Coefs[s].K, lo, hi)
		acc = acc.addTerm(-w.Coefs[s].K, lo, hi)
	}
	return !acc.contains(delta)
}

// weakSIV handles a single variable with differing coefficients on the two
// sides: GCD first, then Banerjee bounds, then the direction-constrained
// variant that can pin the dependence to distance zero.
func (ns *nestSpace) weakSIV(s int, cw, cr, delta int64) dimRel {
	g := gcd64(abs64(cw), abs64(cr))
	if g != 0 && delta%g != 0 {
		return dimRel{none: true}
	}

	// Weak-zero SIV: one side does not involve the variable, so collisions
	// happen only at one fixed value of the other side.
	if cw == 0 || cr == 0 {
		c, sign := cr, int64(1)
		if cr == 0 {
			c, sign = cw, -1
		}
		if c == 0 {
			return freeDim()
		}
		if (sign*delta)%c != 0 {
			return dimRel{none: true}
		}
		if !ns.reachable(s, sign*delta/c) {
			return dimRel{none: true}
		}
		return freeDim()
	}

	lo, hi, ok := ns.varBounds(s)
	if !ok {
		return freeDim()
	}
	full := emptyRng().addTerm(cr, lo, hi).addTerm(-cw, lo, hi)
	if !full.contains(delta) {
		return dimRel{none: true}
	}

	h := ns.headers[s]
	stepAbs := abs64(h.Step)
	span := hi - lo

	// Direction '=': (cr−cw)·t = delta at a single t.
	eqFeasible := false
	if d := cr - cw; d != 0 && delta%d == 0 && ns.reachable(s, delta/d) {
		eqFeasible = true
	}

	// Directions '<' and '>': u = t + e with |e| ≥ step magnitude.
	posFeasible := ns.crossFeasible(cw, cr, delta, lo, hi, stepAbs, span)
	negFeasible := ns.crossFeasible(cw, cr, delta, lo, hi, -span, -stepAbs)

	switch {
	case !posFeasible && !negFeasible && eqFeasible:
		return pinned(s, 0)
	case !posFeasible && !negFeasible && !eqFeasible:
		return dimRel{none: true}
	}
	return freeDim()
}

// crossFeasible checks whether cr·(t+e) − cw·t = delta can hold for some
// t in [lo,hi] and e in [eLo,eHi].
func (ns *nestSpace) crossFeasible(cw, cr, delta, lo, hi, eLo, eHi int64) bool {
	if eLo > eHi {
		return false
	}
	acc := emptyRng().addTerm(cr-cw, lo, hi).addTerm(cr, eLo, eHi)
	return acc.contains(delta)
}

// banerjeePinOuter applies the direction-constrained bounds test to the
// outer variable of an MIV dimension: when a nonzero outer distance is
// infeasible within the bounds, the dependence cannot be carried by the
// outer loop even though inner levels stay unresolved.
func (ns *nestSpace) banerjeePinOuter(w, r nAffine, vars []int, delta int64) (dimRel, bool) {
	const outer = 0
	cwo, cro := w.Coefs[outer].K, r.Coefs[outer].K
	if cwo == 0 && cro == 0 {
		return dimRel{}, false
	}
	oLo, oHi, ok := ns.varBounds(outer)
	if !ok {
		return dimRel{}, false
	}
	rest := emptyRng()
	for _, s := range vars {
		if s == outer {
			continue
		}
		lo, hi, okV := ns.varBounds(s)
		if !okV {
			return dimRel{}, false
		}
		rest = rest.addTerm(r.Coefs[s].K, lo, hi)
		rest = rest.addTerm(-w.Coefs[s].K, lo, hi)
	}
	h := ns.headers[outer]
	stepAbs := abs64(h.Step)
	span := oHi - oLo

	feasible := func(eLo, eHi int64) bool {
		if eLo > eHi {
			return false
		}
		acc := rest.addTerm(cro-cwo, oLo, oHi).addTerm(cro, eLo, eHi)
		return acc.contains(delta)
	}
	eqAcc := rest.addTerm(cro-cwo, oLo, oHi)
	eqFeasible := eqAcc.contains(delta)
	posFeasible := feasible(stepAbs, span)
	negFeasible := feasible(-span, -stepAbs)

	switch {
	case !posFeasible && !negFeasible && eqFeasible:
		return pinned(outer, 0), true
	case !posFeasible && !negFeasible && !eqFeasible:
		return dimRel{none: true}, true
	}
	return dimRel{}, false
}
