package dep

import (
	"sort"

	"pragformer/internal/cast"
)

// collector walks a loop body gathering accesses and side-effect facts. Its
// name tables and slices are workspace memory, kept across analyses and
// cleared by reset; only unknownCalls is handed to the result, so it starts
// nil every time.
type collector struct {
	loopVar  string
	funcs    map[string]*cast.FuncDef
	declared map[string]bool // names declared inside the body (auto-private)

	accesses     []access
	subs         []cast.Expr // slab every access's subscript list is carved from
	order        int
	hasIO        bool
	hasBreak     bool
	badWrite     bool
	unbalanced   bool
	impureCall   string
	unknownCalls []string
	unknownSeen  map[string]bool
	condDepth    int // >0 while under an if/ternary condition's branches

	// Loop-nest bookkeeping: normalized inner loop headers keyed by
	// variable, in first-seen order.
	nestHeaders map[string]LoopHeader
	nestOrder   []string
}

// reset drops everything one walk gathered and keeps the slabs and name
// tables, cleared.
func (c *collector) reset() {
	clear(c.declared)
	clear(c.unknownSeen)
	clear(c.nestHeaders)
	*c = collector{
		declared: c.declared, unknownSeen: c.unknownSeen, nestHeaders: c.nestHeaders,
		accesses: zero(c.accesses), subs: zero(c.subs), nestOrder: zero(c.nestOrder),
	}
}

// begin readies a clean collector for a walk of the body of the loop
// headed by h.
func (c *collector) begin(h LoopHeader, funcs map[string]*cast.FuncDef) {
	c.loopVar, c.funcs = h.Var, funcs
	if c.declared == nil {
		c.declared = map[string]bool{}
	}
	if h.DeclInline {
		c.declared[h.Var] = true
	}
}

func (c *collector) record(a access) {
	a.cond = c.condDepth > 0
	a.order = c.order
	c.order++
	c.accesses = append(c.accesses, a)
}

// sameHeader reports whether two normalized headers over one variable
// iterate alike, so that identical sibling loops merge into one nest level
// while conflicting reuses of a variable demote its bounds to unknown.
func sameHeader(x, y LoopHeader) bool {
	return sameBound(x.Lower, y.Lower) && sameBound(x.Upper, y.Upper) &&
		x.Step == y.Step && x.Inclusive == y.Inclusive
}

func sameBound(x, y Affine) bool {
	return x.Coef == y.Coef && x.Const == y.Const && x.sameSymbols(y)
}

// enterNest registers a normalized inner loop header as a nest level.
func (c *collector) enterNest(h LoopHeader) {
	if c.nestHeaders == nil {
		c.nestHeaders = map[string]LoopHeader{}
	}
	if prev, seen := c.nestHeaders[h.Var]; seen {
		// A conflicting header for a variable already seen: keep the level
		// but drop its bounds so distance math stays conservative. The
		// first header stays the one compared against.
		if !sameHeader(prev, h) {
			prev.OK = false
			c.nestHeaders[h.Var] = prev
		}
		return
	}
	c.nestHeaders[h.Var] = h
	c.nestOrder = append(c.nestOrder, h.Var)
}

func (c *collector) stmt(s cast.Stmt) {
	switch v := s.(type) {
	case nil:
	case *cast.Block:
		for _, st := range v.Stmts {
			c.stmt(st)
		}
	case *cast.ExprStmt:
		c.expr(v.X, false)
	case *cast.DeclStmt:
		for _, d := range v.Decls {
			c.declared[d.Name] = true
			if d.Init != nil {
				c.expr(d.Init, false)
				// The decl itself writes a body-local name; body-local names
				// are automatically private so no access record is needed.
			}
			for _, dim := range d.ArrayDims {
				if dim != nil {
					c.expr(dim, false)
				}
			}
		}
	case *cast.For:
		h := ParseHeader(v)
		if h.OK {
			if h.DeclInline {
				c.declared[h.Var] = true
			} else {
				// The header writes then reads the inner variable.
				c.record(access{name: h.Var, write: true, plainWrite: true})
				c.record(access{name: h.Var})
			}
			c.enterNest(h)
			// Bound/step expressions are reads.
			if v.Init != nil {
				if es, ok := v.Init.(*cast.ExprStmt); ok {
					if asg, ok := es.X.(*cast.Assign); ok {
						c.expr(asg.R, false)
					}
				}
			}
			if v.Cond != nil {
				c.exprSkipVar(v.Cond, h.Var)
			}
			c.stmt(v.Body)
			return
		}
		// Unnormalized inner loop: treat header conservatively.
		if v.Init != nil {
			c.stmt(v.Init)
		}
		if v.Cond != nil {
			c.expr(v.Cond, false)
		}
		if v.Post != nil {
			c.expr(v.Post, false)
		}
		c.stmt(v.Body)
	case *cast.While:
		c.expr(v.Cond, false)
		c.stmt(v.Body)
	case *cast.DoWhile:
		c.stmt(v.Body)
		c.expr(v.Cond, false)
	case *cast.If:
		c.expr(v.Cond, false)
		heavyThen := c.weigh(v.Then)
		heavyElse := c.weigh(v.Else)
		// A guard whose branches differ greatly in cost marks the loop as
		// unbalanced (paper §1.1 example #2: if (MoreCalc(i)) Calc(i);).
		if heavyThen >= 2*heavyElse+2 || heavyElse >= 2*heavyThen+2 {
			c.unbalanced = true
		}
		c.condDepth++
		c.stmt(v.Then)
		if v.Else != nil {
			c.stmt(v.Else)
		}
		c.condDepth--
	case *cast.Return:
		c.hasBreak = true // returning from inside the loop is an early exit
		if v.X != nil {
			c.expr(v.X, false)
		}
	case *cast.Break:
		c.hasBreak = true
	case *cast.Continue:
		// continue is fine: iteration independence is unaffected.
	case *cast.Empty:
	case *cast.PragmaStmt:
		if v.Stmt != nil {
			c.stmt(v.Stmt)
		}
	}
}

// weigh estimates the computational weight of a statement subtree: number
// of calls, loops and assignments. Used by the balance heuristic only.
func (c *collector) weigh(s cast.Stmt) int {
	if s == nil {
		return 0
	}
	w := 0
	cast.Walk(s, func(n cast.Node) bool {
		switch n.(type) {
		case *cast.FuncCall:
			w += 3
		case *cast.For, *cast.While, *cast.DoWhile:
			w += 4
		case *cast.Assign:
			w++
		case *cast.BinaryOp:
			w++
		}
		return true
	})
	return w
}

// exprSkipVar records reads in e except for bare references to skip.
func (c *collector) exprSkipVar(e cast.Expr, skip string) {
	if id, ok := e.(*cast.Ident); ok && id.Name == skip {
		return
	}
	if bin, ok := e.(*cast.BinaryOp); ok {
		c.exprSkipVar(bin.L, skip)
		c.exprSkipVar(bin.R, skip)
		return
	}
	c.expr(e, false)
}

// expr records accesses in an expression. asWrite marks the expression as
// the target of an assignment.
func (c *collector) expr(e cast.Expr, asWrite bool) {
	c.exprOp(e, asWrite, false)
}

// flattenRef collapses an ArrayRef chain to its base name and subscript
// list, outermost subscript first, on the subscript slab: the chain is
// counted, then filled from the back. An empty base means the chain does
// not bottom out in a plain identifier.
func (c *collector) flattenRef(e cast.Expr) (base string, subs []cast.Expr) {
	n := 0
	for ar, ok := e.(*cast.ArrayRef); ok; ar, ok = ar.Arr.(*cast.ArrayRef) {
		n++
	}
	subs = carve(&c.subs, n)
	for ar, ok := e.(*cast.ArrayRef); ok; ar, ok = ar.Arr.(*cast.ArrayRef) {
		n--
		subs[n] = ar.Index
	}
	return cast.RootIdent(e), subs
}

// exprOp is expr with compound-assignment awareness: compound indicates the
// enclosing assignment reads the lvalue too.
func (c *collector) exprOp(e cast.Expr, asWrite, compound bool) {
	switch v := e.(type) {
	case nil:
	case *cast.Ident:
		if v.Name == c.loopVar {
			if asWrite {
				c.badWrite = true // body mutates the loop variable
			}
			return
		}
		if cast.IsLibraryName(v.Name) {
			return
		}
		if c.declared[v.Name] {
			return // body-local: automatically private
		}
		if asWrite {
			c.record(access{name: v.Name, write: true, plainWrite: !compound, node: v})
			if compound {
				c.record(access{name: v.Name, node: v})
			}
		} else {
			c.record(access{name: v.Name, node: v})
		}
	case *cast.IntLit, *cast.FloatLit, *cast.CharLit, *cast.StrLit:
	case *cast.Assign:
		// Reduction-shaped scalar accumulations are recorded specially so
		// the classifier can distinguish `sum += a[i]` (reduction) from a
		// generic read-modify-write (carried dependence). The self-read is
		// implicit in the accumOp and not recorded separately.
		if id, ok := v.L.(*cast.Ident); ok &&
			id.Name != c.loopVar && !c.declared[id.Name] && !cast.IsLibraryName(id.Name) {
			if op, rhs, okShape := accumShape(v, id.Name); okShape && !refersTo(rhs, id.Name) {
				c.exprOp(rhs, false, false)
				c.record(access{name: id.Name, write: true, accumOp: op, node: id})
				return
			}
		}
		// Array accumulations (`hist[e] += x`, `a[i] = a[i] + x`) keep the
		// write/self-read pair for the plain dependence tests but tag both
		// records with the operator so array-reduction recognition can lift
		// a refuted histogram or in-place update into a reduction clause.
		if ar, ok := v.L.(*cast.ArrayRef); ok {
			if base := cast.RootIdent(ar); base != "" && !c.declared[base] && base != c.loopVar {
				if op, rhs, okShape := arrayAccumShape(v, base); okShape && !refersTo(rhs, base) {
					_, subs := c.flattenRef(ar)
					for _, s := range subs {
						c.exprOp(s, false, false)
					}
					c.exprOp(rhs, false, false)
					c.record(access{name: base, write: true, accumOp: op, subs: subs, node: ar})
					c.record(access{name: base, accumOp: op, subs: subs, node: ar})
					return
				}
			}
		}
		compound := v.Op != "="
		// RHS is evaluated first (reads), then the lvalue is written.
		c.exprOp(v.R, false, false)
		c.writeTarget(v.L, compound)
	case *cast.BinaryOp:
		c.exprOp(v.L, false, false)
		c.exprOp(v.R, false, false)
	case *cast.UnaryOp:
		if v.Op == "++" || v.Op == "--" {
			// x++ reads and writes x.
			c.writeTarget(v.X, true)
			return
		}
		if v.Op == "*" && !v.Postfix {
			if asWrite {
				c.badWrite = true // *p = ... unanalyzable
				return
			}
			c.exprOp(v.X, false, false)
			return
		}
		if v.Op == "&" && !v.Postfix {
			// Taking an address defeats scalar analysis.
			if name := cast.RootIdent(v.X); name != "" {
				c.badWrite = true
			}
			return
		}
		c.exprOp(v.X, asWrite, compound)
	case *cast.ArrayRef:
		base, subs := c.flattenRef(e)
		for _, s := range subs {
			c.exprOp(s, false, false)
		}
		if base == "" {
			if asWrite {
				c.badWrite = true
			}
			return
		}
		if asWrite {
			c.record(access{name: base, write: true, plainWrite: !compound, subs: subs, node: e})
			if compound {
				c.record(access{name: base, subs: subs, node: e})
			}
		} else {
			c.record(access{name: base, subs: subs, node: e})
		}
	case *cast.FuncCall:
		name := ""
		if id, ok := v.Fun.(*cast.Ident); ok {
			name = id.Name
		}
		for _, arg := range v.Args {
			c.exprOp(arg, false, false)
		}
		c.call(name, v.Args)
	case *cast.Member:
		base := cast.RootIdent(v.X)
		// Treat s->f / s.f as an access to pseudo-array "base.field" with
		// the member path folded into the name; subscripts inside v.X were
		// already visited via RootIdent-based traversal below.
		c.memberAccess(v, asWrite, compound, base)
	case *cast.Ternary:
		c.exprOp(v.Cond, false, false)
		c.condDepth++
		c.exprOp(v.Then, false, false)
		c.exprOp(v.Else, false, false)
		c.condDepth--
	case *cast.Cast:
		c.exprOp(v.X, asWrite, compound)
	case *cast.Sizeof:
		// No runtime access.
	case *cast.Comma:
		c.exprOp(v.L, false, false)
		c.exprOp(v.R, asWrite, compound)
	case *cast.InitList:
		for _, el := range v.Elems {
			c.exprOp(el, false, false)
		}
	}
}

// arrayAccumShape recognizes reduction-shaped assignments to an array cell:
// compound `a[e] op= x`, plain `a[e] = a[e] op x` / `a[e] = x op a[e]`
// (commutative op), and `a[e] = fmax(a[e], x)` / fmin. The self operand must
// print identically to the assignment target.
func arrayAccumShape(v *cast.Assign, base string) (op string, rhs cast.Expr, ok bool) {
	// The target is printed once, and only when an operand shares its base.
	self := ""
	return accumShapeOf(v, func(e cast.Expr) bool {
		if cast.RootIdent(e) != base {
			return false
		}
		if self == "" {
			self = cast.PrintExpr(v.L)
		}
		return cast.PrintExpr(e) == self
	})
}

// memberAccess handles struct member reads/writes, including the
// image->colormap[i].opacity pattern: the innermost ArrayRef subscripts
// participate in dependence testing under the flattened name.
func (c *collector) memberAccess(m *cast.Member, asWrite, compound bool, base string) {
	// Collect subscripts found anywhere in the postfix chain, innermost
	// first, on the subscript slab: counted, then filled from the back.
	n := 0
	for e := m.X; e != nil; e = postfixInner(e) {
		if _, ok := e.(*cast.ArrayRef); ok {
			n++
		}
	}
	subs := carve(&c.subs, n)
	for e := m.X; e != nil; e = postfixInner(e) {
		if ar, ok := e.(*cast.ArrayRef); ok {
			n--
			subs[n] = ar.Index
		}
	}
	for _, s := range subs {
		c.exprOp(s, false, false)
	}
	name := base + "." + m.Field
	if base == "" {
		if asWrite {
			c.badWrite = true
		}
		return
	}
	// A member written without any subscript (s->total = ...) touches one
	// shared location every iteration; record it with an empty (non-nil)
	// subscript vector so the array tests flag the output dependence rather
	// than the scalar classifier treating it as privatizable.
	if len(subs) == 0 {
		subs = []cast.Expr{}
	}
	if asWrite {
		c.record(access{name: name, write: true, plainWrite: !compound, subs: subs, node: m})
		if compound {
			c.record(access{name: name, subs: subs, node: m})
		}
	} else {
		c.record(access{name: name, subs: subs, node: m})
	}
}

// postfixInner steps one link down a postfix chain of subscripts and member
// selections; nil ends the chain.
func postfixInner(e cast.Expr) cast.Expr {
	switch v := e.(type) {
	case *cast.ArrayRef:
		return v.Arr
	case *cast.Member:
		return v.X
	}
	return nil
}

// writeTarget records a write to an lvalue expression.
func (c *collector) writeTarget(e cast.Expr, compound bool) {
	c.exprOp(e, true, compound)
}

// call classifies a function call by name and, when available, by body.
func (c *collector) call(name string, args []cast.Expr) {
	if name == "" {
		c.badWrite = true // call through pointer
		return
	}
	if pureFuncs[name] {
		return
	}
	if ioFuncs[name] {
		c.hasIO = true
		return
	}
	if fd, ok := c.funcs[name]; ok && fd != nil {
		se := SideEffects(fd, c.funcs)
		switch {
		case se.HasIO:
			c.hasIO = true
		case se.WritesGlobals || se.WritesPointerParams:
			c.impureCall = name
		}
		return
	}
	if c.unknownSeen == nil {
		c.unknownSeen = map[string]bool{}
	}
	if !c.unknownSeen[name] {
		c.unknownSeen[name] = true
		c.unknownCalls = append(c.unknownCalls, name)
		sort.Strings(c.unknownCalls)
	}
}

// varyingNames fills ns.varying, which is empty, with the identifiers whose
// value may change from iteration to iteration of the analyzed loop without
// being a nest variable: body-declared locals and scalars written inside
// the body. Subscript symbols drawn from this set cannot prove independence
// via constant-difference arguments.
func (c *collector) varyingNames(ns *nestSpace) {
	for name := range c.declared {
		if ns.slot(name) < 0 {
			ns.varying[name] = true
		}
	}
	for i := range c.accesses {
		acc := &c.accesses[i]
		if acc.write && acc.subs == nil && ns.slot(acc.name) < 0 {
			ns.varying[acc.name] = true
		}
	}
}
