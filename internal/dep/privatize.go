package dep

import (
	"slices"
	"strings"

	"pragformer/internal/cast"
	"pragformer/internal/pragma"
)

// Array privatization and array-reduction recognition: the two most common
// reasons a genuinely parallel loop is refuted by a plain dependence test.
// A per-iteration scratch array (written before read every iteration, with
// outer-invariant subscripts) privatizes away its cross-iteration output
// dependence; a consistent-operator accumulation (`hist[e] += x`) becomes a
// reduction clause even when the subscript itself is unanalyzable. Both are
// decided only for arrays the race test refutes, so every conversion recorded
// in Converted is a verdict the one-level engine would have gotten wrong. The
// engine's pass records the two decisions beside the plain verdict; Convert
// applies them.

// refutedArray is one array the race test refuted, with what would rescue it.
type refutedArray struct {
	name        string
	privatizing bool   // privatizable: a private clause lifts the dependence
	reduceOp    string // arrayReduction's operator, "" when it is not one
}

// testArraysNest runs the nested-loop dependence engine over array accesses.
// It returns false when a loop-carried array dependence survives the
// distance-vector tests.
func (a *Analysis) testArraysNest(ws *workspace) bool {
	ns := &ws.ns
	// Group the array accesses by name: a stable sort over pointers keeps the
	// visit order within each array.
	for i := range ws.ctx.accesses {
		if acc := &ws.ctx.accesses[i]; acc.subs != nil {
			ws.arrays = append(ws.arrays, acc)
		}
	}
	slices.SortStableFunc(ws.arrays, func(x, y *access) int { return strings.Compare(x.name, y.name) })

	for rest := ws.arrays; len(rest) > 0; {
		name := rest[0].name
		n := 1
		for n < len(rest) && rest[n].name == name {
			n++
		}
		accs := rest[:n]
		rest = rest[n:]
		if !slices.ContainsFunc(accs, func(acc *access) bool { return acc.write }) {
			continue // read-only array: safe
		}
		for _, acc := range accs {
			acc.forms = carve(&ws.forms, len(acc.subs))
			acc.affine = true
			for d, s := range acc.subs {
				acc.forms[d] = ns.form(s)
				acc.affine = acc.affine && acc.forms[d].OK
			}
		}
		witness, reason := ns.raceTest(name, accs)
		if reason == "" {
			continue
		}
		a.refuted = append(a.refuted, refutedArray{name, privatizable(name, accs, ns), arrayReduction(name, accs)})
		a.Witnesses = append(a.Witnesses, witness)
		a.Reasons = append(a.Reasons, reason)
	}
	return len(a.refuted) == 0
}

// Convert derives from a plain analysis the advisor's, both conversions
// applied: each refuted array that privatizes or reduces away trades its
// witness and reason for a clause — privatization first — and a loop left
// with no refutation becomes parallelizable. It is a function of the plain
// result alone — a is never modified, and is returned as it is when nothing
// is rescued.
func (a *Analysis) Convert() *Analysis {
	if !slices.ContainsFunc(a.refuted, func(r refutedArray) bool { return r.privatizing || r.reduceOp != "" }) {
		return a
	}
	c := *a
	c.refuted, c.Witnesses = nil, nil
	c.Private = slices.Clone(a.Private)
	c.Reductions = slices.Clone(a.Reductions)
	// The array reasons are the last the pass wrote, one per refuted array;
	// each is kept or replaced, and accept may add one.
	tail := len(a.Reasons) - len(a.refuted)
	c.Reasons = append(make([]string, 0, len(a.Reasons)+1), a.Reasons[:tail]...)
	for k, r := range a.refuted {
		switch {
		case r.privatizing:
			c.Private = append(c.Private, r.name)
			c.Converted = append(c.Converted, r.name)
			c.reason("array %s privatized: each iteration writes it before any read", r.name)
		case r.reduceOp != "":
			c.Reductions = append(c.Reductions, pragma.Reduction{Op: r.reduceOp, Vars: []string{r.name}})
			c.Converted = append(c.Converted, r.name)
			c.reason("array %s recognized as a reduction(%s) accumulation", r.name, r.reduceOp)
		default:
			c.Witnesses = append(c.Witnesses, a.Witnesses[k])
			c.Reasons = append(c.Reasons, a.Reasons[tail+k])
		}
	}
	if len(c.Witnesses) == 0 {
		c.accept()
	}
	return &c
}

// raceTest tests every write of one array against every access and returns
// the best witness for a surviving dependence with the reason to report (an
// empty reason when independent): the first pair that resolves the outer
// direction, else the first surviving pair. A witness is built only for a
// pair that becomes the best.
func (ns *nestSpace) raceTest(name string, accs []*access) (best Witness, reason string) {
	var firstWrite *access
	for _, w := range accs {
		if !w.write {
			continue
		}
		if !w.affine {
			return bailWitness(name, w, w, "non-affine subscript on a write"),
				"array " + name + " written with non-affine subscript"
		}
		if firstWrite == nil {
			firstWrite = w
		}
	}
	for _, r := range accs {
		if !r.affine {
			return bailWitness(name, firstWrite, r, "non-affine access conflicting with a write"),
				"array " + name + " has a non-affine access conflicting with a write"
		}
	}
	const outer = 0
	found := false
pairs:
	for _, w := range accs {
		if !w.write {
			continue
		}
		for _, r := range accs {
			rel := ns.pairTest(w.forms, r.forms)
			if rel.none {
				continue
			}
			if rel.known[outer] && rel.dist[outer] == 0 {
				continue // loop-independent for the outer loop
			}
			if found && !rel.known[outer] {
				continue
			}
			best, found = ns.buildWitness(name, w, r, rel), true
			if rel.known[outer] {
				break pairs // nothing later can displace a resolved direction
			}
		}
	}
	if !found {
		return Witness{}, ""
	}
	return best, "array " + name + " carries a loop dependence between accesses (" +
		best.Kind + ", distance " + best.Distance + ")"
}

// privatizable decides whether an array behaves as per-iteration scratch:
// every subscript is affine, outer-invariant, and drawn from unambiguous
// inner levels; all accesses touch the same subscript vector; and the first
// access each iteration is an unconditional plain write, so reads only ever
// see values produced in the same outer iteration.
func privatizable(name string, accs []*access, ns *nestSpace) bool {
	if strings.Contains(name, ".") {
		return false // struct member pseudo-arrays cannot take a clause
	}
	first := accs[0]
	if !first.write || !first.plainWrite || first.accumOp != "" || first.cond {
		return false
	}
	for _, acc := range accs {
		if !acc.affine {
			return false
		}
		for _, na := range acc.forms {
			if na.Varying {
				return false
			}
			for s, c := range na.Coefs {
				if c == (nvCoef{}) {
					continue
				}
				if s == 0 {
					return false // subscript depends on the outer iteration
				}
				if !ns.headers[s].OK {
					return false // ambiguous inner bounds: coverage unknown
				}
			}
		}
	}
	// Exact-match coverage: every access prints the same subscript vector.
	key := subsKey(first)
	for _, acc := range accs[1:] {
		if subsKey(acc) != key {
			return false
		}
	}
	return true
}

// subsKey prints an access's subscript vector.
func subsKey(acc *access) string {
	var b strings.Builder
	for i, s := range acc.subs {
		if i > 0 {
			b.WriteString("][")
		}
		b.WriteString(cast.PrintExpr(s))
	}
	return b.String()
}

// arrayReduction recognizes a consistent-operator accumulation and returns
// its operator, "" when the array is not one: every write is an accumulation
// with one operator and the array is never read outside its own
// accumulations. The subscript may be arbitrary — histogram updates
// through an index array are the canonical case.
func arrayReduction(name string, accs []*access) string {
	if strings.Contains(name, ".") {
		return ""
	}
	op := accs[0].accumOp
	for _, acc := range accs {
		if acc.accumOp != op {
			return ""
		}
	}
	return op
}
