package dep

import (
	"slices"
	"strings"

	"pragformer/internal/cast"
	"pragformer/internal/pragma"
)

// scalarInfo tallies the accesses of one scalar.
type scalarInfo struct {
	name              string
	reads             int
	writes            int
	accums            int
	op                string // operator of the first accumulation
	mixed             bool   // a later accumulation used another operator
	firstIsPlainWrite bool   // first access is an unconditional `x = ...`
}

// scalarTable is the workspace slab classifyScalars tallies into: one entry
// per scalar, found by name through at.
type scalarTable struct {
	infos []scalarInfo
	at    map[string]int
}

func (t *scalarTable) reset() {
	clear(t.at)
	t.infos = zero(t.infos)
}

// classifyScalars partitions scalar accesses into private / reduction /
// carried classes, tallying on t, which is empty. It returns false (and
// records a reason) when a scalar carries a dependence that blocks
// parallelization.
func (a *Analysis) classifyScalars(ctx *collector, t *scalarTable) bool {
	if t.at == nil {
		t.at = map[string]int{}
	}
	for i := range ctx.accesses {
		acc := &ctx.accesses[i]
		if acc.subs != nil {
			continue
		}
		k, seen := t.at[acc.name]
		if !seen {
			k = len(t.infos)
			t.at[acc.name] = k
			t.infos = append(t.infos, scalarInfo{
				name:              acc.name,
				firstIsPlainWrite: acc.write && acc.plainWrite && acc.accumOp == "" && !acc.cond,
			})
		}
		info := &t.infos[k]
		if !acc.write {
			info.reads++
			continue
		}
		info.writes++
		if acc.accumOp != "" {
			info.accums++
			if info.op == "" {
				info.op = acc.accumOp
			} else if info.op != acc.accumOp {
				info.mixed = true
			}
		}
	}
	slices.SortFunc(t.infos, func(x, y scalarInfo) int { return strings.Compare(x.name, y.name) })

	for i := range t.infos {
		info := &t.infos[i]
		if info.writes == 0 {
			continue // read-only scalar: shared, safe
		}
		// Reduction idiom: every write is an accumulation with one
		// consistent operator and the scalar is never read outside the
		// accumulations (those self-reads are not recorded as reads).
		if info.op != "" && !info.mixed && info.writes == info.accums && info.reads == 0 {
			a.Reductions = append(a.Reductions, pragma.Reduction{Op: info.op, Vars: []string{info.name}})
			continue
		}
		// Private idiom: the first access in each iteration is an
		// unconditional plain write, so the iteration fully defines the
		// scalar before any use (covers `s = 0; s += ...; c[i][j] = s`).
		if info.firstIsPlainWrite {
			a.Private = append(a.Private, info.name)
			continue
		}
		a.Witnesses = append(a.Witnesses, a.scalarWitness(ctx, info.name))
		a.reason("scalar %s carries a loop dependence (read-modify-write across iterations)", info.name)
		return false
	}
	return true // Private and Reductions are in name order
}

// accumShape recognizes reduction-shaped assignments to scalar `name`:
// compound `s op= e`, plain `s = s op e` / `s = e op s` (commutative op),
// `s = s - e`, and `s = fmax(s, e)` / `s = fmin(s, e)`. Returns the OpenMP
// reduction operator and the accumulated (non-self) expression.
func accumShape(v *cast.Assign, name string) (op string, rhs cast.Expr, ok bool) {
	return accumShapeOf(v, func(e cast.Expr) bool {
		id, isIdent := e.(*cast.Ident)
		return isIdent && id.Name == name
	})
}

// accumShapeOf is the reduction-shape recogniser behind accumShape and
// arrayAccumShape; isSelf tells which operand is the assignment target.
func accumShapeOf(v *cast.Assign, isSelf func(cast.Expr) bool) (op string, rhs cast.Expr, ok bool) {
	switch v.Op {
	case "+=", "-=", "*=", "&=", "|=", "^=":
		return v.Op[:len(v.Op)-1], v.R, true
	case "=":
		switch r := v.R.(type) {
		case *cast.BinaryOp:
			commutative := r.Op == "+" || r.Op == "*" || r.Op == "&" || r.Op == "|" || r.Op == "^"
			if isSelf(r.L) && (commutative || r.Op == "-") {
				return r.Op, r.R, true
			}
			if isSelf(r.R) && commutative {
				return r.Op, r.L, true
			}
		case *cast.FuncCall:
			fn, okF := r.Fun.(*cast.Ident)
			if okF && (fn.Name == "fmax" || fn.Name == "fmin") && len(r.Args) == 2 {
				redOp := "max"
				if fn.Name == "fmin" {
					redOp = "min"
				}
				if isSelf(r.Args[0]) {
					return redOp, r.Args[1], true
				}
				if isSelf(r.Args[1]) {
					return redOp, r.Args[0], true
				}
			}
		}
	}
	return "", nil, false
}

// refersTo reports whether expression e mentions identifier name.
func refersTo(e cast.Expr, name string) bool {
	found := false
	cast.Walk(e, func(n cast.Node) bool {
		if id, ok := n.(*cast.Ident); ok && id.Name == name {
			found = true
			return false
		}
		return !found
	})
	return found
}
