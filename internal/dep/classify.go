package dep

import (
	"sort"

	"pragformer/internal/cast"
	"pragformer/internal/pragma"
)

// classifyScalars partitions scalar accesses into private / reduction /
// carried classes. It returns false (and records a reason) when a scalar
// carries a dependence that blocks parallelization.
func (a *Analysis) classifyScalars(ctx *collector) bool {
	type scalarInfo struct {
		reads             int
		writes            int
		accums            int
		accumOps          map[string]bool
		firstSeen         bool
		firstIsPlainWrite bool // first access is an unconditional `x = ...`
	}
	infos := map[string]*scalarInfo{}
	var names []string
	for _, acc := range ctx.accesses {
		if acc.subs != nil {
			continue
		}
		info := infos[acc.name]
		if info == nil {
			info = &scalarInfo{accumOps: map[string]bool{}}
			infos[acc.name] = info
			names = append(names, acc.name)
		}
		if !info.firstSeen {
			info.firstSeen = true
			info.firstIsPlainWrite = acc.write && acc.plainWrite && acc.accumOp == "" && !acc.cond
		}
		if acc.write {
			info.writes++
			if acc.accumOp != "" {
				info.accums++
				info.accumOps[acc.accumOp] = true
			}
		} else {
			info.reads++
		}
	}
	sort.Strings(names)

	for _, name := range names {
		info := infos[name]
		if info.writes == 0 {
			continue // read-only scalar: shared, safe
		}
		// Reduction idiom: every write is an accumulation with one
		// consistent operator and the scalar is never read outside the
		// accumulations (those self-reads are not recorded as reads).
		if len(info.accumOps) == 1 && info.writes == info.accums && info.reads == 0 {
			op := soleKey(info.accumOps)
			a.Reductions = append(a.Reductions, pragma.Reduction{Op: op, Vars: []string{name}})
			continue
		}
		// Private idiom: the first access in each iteration is an
		// unconditional plain write, so the iteration fully defines the
		// scalar before any use (covers `s = 0; s += ...; c[i][j] = s`).
		if info.firstIsPlainWrite {
			a.Private = append(a.Private, name)
			continue
		}
		a.Witnesses = append(a.Witnesses, a.scalarWitness(ctx, name))
		a.reason("scalar %s carries a loop dependence (read-modify-write across iterations)", name)
		return false
	}

	sort.Strings(a.Private)
	sort.Slice(a.Reductions, func(i, j int) bool { return a.Reductions[i].Vars[0] < a.Reductions[j].Vars[0] })
	return true
}

func soleKey(m map[string]bool) string {
	for k := range m {
		return k
	}
	return ""
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
