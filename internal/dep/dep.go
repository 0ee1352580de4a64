// Package dep implements the data-dependence analysis that underlies both
// the corpus ground-truth labeler and the S2S compiler baselines: loop
// header normalization, read/write set extraction, scalar dependence
// classification (private / reduction / carried), array dependence testing
// (ZIV / SIV / GCD on affine subscripts), function side-effect analysis, and
// workload-balance heuristics.
package dep

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"pragformer/internal/cast"
	"pragformer/internal/pragma"
)

// LoopHeader is a normalized `for (v = L; v < U; v += S)` header.
type LoopHeader struct {
	Var        string
	Lower      Affine
	Upper      Affine
	Step       int64
	Inclusive  bool // `<=` bound
	DeclInline bool // loop variable declared in the init clause
	OK         bool
}

// TripCount returns the constant iteration count, or -1 when unknown.
func (h LoopHeader) TripCount() int64 {
	if !h.OK || !h.Lower.constOnly() || !h.Upper.constOnly() || h.Step == 0 {
		return -1
	}
	lo, hi := h.Lower.Const, h.Upper.Const
	if h.Step > 0 {
		if h.Inclusive {
			hi++
		}
		if hi <= lo {
			return 0
		}
		return (hi - lo + h.Step - 1) / h.Step
	}
	if h.Inclusive {
		hi--
	}
	if lo <= hi {
		return 0
	}
	return (lo - hi + (-h.Step) - 1) / (-h.Step)
}

// Analysis is the full result of analyzing one for-loop.
type Analysis struct {
	Header LoopHeader

	// Parallelizable is true when no loop-carried dependence, side effect,
	// or analysis failure prevents a `parallel for` directive.
	Parallelizable bool

	// Private lists scalars needing a private clause (assigned before use
	// in each iteration, declared outside the loop). Inner loop variables
	// declared outside land here, matching the paper's private(j) examples.
	Private []string
	// Reductions lists recognized reduction idioms.
	Reductions []pragma.Reduction
	// Unbalanced is set when the body's cost is iteration-dependent
	// (guarded heavy work), suggesting schedule(dynamic) per the paper §1.1.
	Unbalanced bool

	// HasIO is true when the body performs I/O or other pinned-order calls.
	HasIO bool
	// UnknownCalls lists called functions whose bodies were unavailable;
	// analysis treats them as having arbitrary side effects.
	UnknownCalls []string
	// Reasons explains (for humans and for tests) why the loop was or was
	// not parallelizable.
	Reasons []string

	// Witnesses carries structured race evidence when dependence testing
	// refutes the loop: the dependence kind, the two access sites anchored
	// to the canonical snippet text, and the direction/distance vector.
	Witnesses []Witness
	// Converted lists arrays whose refuting dependence was rescued by
	// privatization or reduction recognition (only on a Convert result).
	Converted []string
	// NestDepth is the number of analyzed nest levels, outer loop included.
	NestDepth int

	// refuted holds, for a plain analysis, one entry per array the race test
	// refuted, in the order of their Witnesses and of the trailing Reasons:
	// what Convert needs to derive the converted analysis.
	refuted []refutedArray
}

// reason records a single explanation string; a message without arguments
// is recorded as it is.
func (a *Analysis) reason(format string, args ...any) {
	if len(args) == 0 {
		a.Reasons = append(a.Reasons, format)
		return
	}
	a.Reasons = append(a.Reasons, fmt.Sprintf(format, args...))
}

// Directive builds the OpenMP directive this analysis supports, or nil when
// the loop is not parallelizable: every private and reduction clause the
// parallel verdict depends on, plus schedule(dynamic) for an unbalanced
// body. It is the one builder of a directive from an analysis — the corpus
// labels and the advisor's suggestions both print it. Its clause slices are
// the analysis' own, capped at their length as accepted's Reasons are, so an
// append to them copies; nothing writes a clause in place.
func (a *Analysis) Directive() *pragma.Directive {
	if !a.Parallelizable {
		return nil
	}
	d := &pragma.Directive{ParallelFor: true}
	if len(a.Private) > 0 {
		d.Private = slices.Clip(a.Private)
	}
	if len(a.Reductions) > 0 {
		d.Reductions = slices.Clip(a.Reductions)
	}
	if a.Unbalanced {
		d.Schedule = pragma.ScheduleDynamic
	}
	return d
}

// pureFuncs never have side effects: math library calls.
var pureFuncs = map[string]bool{
	"sqrt": true, "sqrtf": true, "fabs": true, "fabsf": true, "abs": true,
	"sin": true, "cos": true, "tan": true, "asin": true, "acos": true,
	"atan": true, "atan2": true, "exp": true, "log": true, "log2": true,
	"log10": true, "pow": true, "floor": true, "ceil": true, "fmod": true,
	"fmax": true, "fmin": true, "hypot": true, "cbrt": true, "round": true,
	"POLYBENCH_LOOP_BOUND": true, // polybench bound macro parsed as a call
	"SCALAR_VAL":           true,
}

// ioFuncs pin iteration order or mutate global state; calling one forbids
// parallelization.
var ioFuncs = map[string]bool{
	"printf": true, "fprintf": true, "scanf": true, "fscanf": true,
	"sprintf": true, "snprintf": true, "puts": true, "putchar": true,
	"getchar": true, "fgets": true, "fputs": true, "fopen": true,
	"fclose": true, "fread": true, "fwrite": true, "fflush": true,
	"malloc": true, "calloc": true, "realloc": true, "free": true,
	"rand": true, "srand": true, "exit": true, "abort": true,
	"strcat": true, "strcpy": true, "strncpy": true, "gets": true,
}

// access records one scalar or array access inside a loop body.
type access struct {
	name  string
	write bool
	// plainWrite marks `x = ...` (not `x op= ...`) — used for the private
	// pattern. Meaningful on write accesses only.
	plainWrite bool
	// accumOp is the reduction operator when this write is a recognized
	// accumulation such as `s += e` or `s = fmax(s, e)`.
	accumOp string
	subs    []cast.Expr // array subscripts, outermost first; nil = scalar
	// cond is true when the access happens under a condition (if/ternary).
	cond  bool
	order int // DFS visit order
	// node anchors the access to its AST expression for witness positions
	// (nil for synthetic records such as inner-loop header writes).
	node cast.Expr
	// forms are the subscripts in nest-affine form and affine whether every
	// one converted; filled by the array tests, for arrays that are written.
	forms  []nAffine
	affine bool
}

// passes counts engine passes process-wide; see Passes.
var passes atomic.Int64

// Passes reports the cumulative number of engine passes in this process — a
// test hook for the one-pass-per-advised-loop gates. Convert is not a pass.
func Passes() int64 { return passes.Load() }

// AnalyzeLoop runs the engine's one pass over a for-loop and returns the
// plain dependence-test verdicts the corpus labeler and S2S baselines use;
// Convert derives the advisor's converted analysis from it.
// funcs maps function names to their definitions when bodies are available
// (the corpus records include called function implementations, per the paper
// §3.1); callers with no bodies pass nil and unknown calls are treated
// conservatively.
func AnalyzeLoop(loop *cast.For, funcs map[string]*cast.FuncDef) *Analysis {
	a := new(Analysis)
	AnalyzeLoopInto(a, loop, funcs)
	return a
}

// AnalyzeLoopInto is AnalyzeLoop writing its result over *a, storage the
// caller holds, so a caller that keeps its analysis in a pooled value does
// not allocate one per loop.
func AnalyzeLoopInto(a *Analysis, loop *cast.For, funcs map[string]*cast.FuncDef) {
	ws := workspaces.Get().(*workspace)
	defer ws.release()
	ws.analyze(a, loop, funcs)
}

// analyze is AnalyzeLoopInto on this workspace, which must be clean.
func (ws *workspace) analyze(a *Analysis, loop *cast.For, funcs map[string]*cast.FuncDef) {
	passes.Add(1)
	*a = Analysis{Header: ParseHeader(loop)}
	if !a.Header.OK {
		a.reason("loop header is not a normalized affine for-loop")
		return
	}

	ctx := &ws.ctx
	ctx.begin(a.Header, funcs)
	ctx.stmt(loop.Body)

	if ctx.hasBreak {
		a.reason("loop contains break/early exit")
		return
	}
	if ctx.badWrite {
		a.reason("write through pointer or unanalyzable lvalue")
		return
	}
	a.HasIO = ctx.hasIO
	a.UnknownCalls = ctx.unknownCalls
	a.Unbalanced = ctx.unbalanced
	if ctx.hasIO {
		a.reason("body performs I/O or order-pinned library calls")
		return
	}
	if len(ctx.unknownCalls) > 0 {
		a.reason("calls functions with unknown bodies: %s", strings.Join(ctx.unknownCalls, ", "))
		return
	}
	if ctx.impureCall != "" {
		a.reason("calls function %s with global side effects", ctx.impureCall)
		return
	}

	// The nest iteration space covers the analyzed loop plus every
	// normalized inner loop; all dependence math below runs over it.
	ws.ns.build(a.Header, ctx)
	a.NestDepth = len(ws.ns.levels)

	// Scalar classification.
	okScalars := a.classifyScalars(ctx, &ws.scalars)
	if !okScalars {
		a.fillWitnessPositions(loop, ws)
		return
	}
	// Array dependence tests over the nest.
	if !a.testArraysNest(ws) {
		a.fillWitnessPositions(loop, ws)
		return
	}

	a.accept()
}

// accepted is the Reasons of an analysis nothing refuted and nothing else
// explained, one read-only slice every such analysis shares. Its len is its
// cap, so an append to it copies, and nothing writes Reasons in place.
var accepted = []string{"no loop-carried dependences detected"}

// accept closes an analysis nothing refuted.
func (a *Analysis) accept() {
	slices.Sort(a.Private)
	slices.SortFunc(a.Reductions, func(x, y pragma.Reduction) int { return strings.Compare(x.Vars[0], y.Vars[0]) })
	a.Parallelizable = true
	if len(a.Reasons) == 0 {
		a.Reasons = accepted
		return
	}
	a.Reasons = append(a.Reasons, accepted[0])
}

// ParseHeader normalizes a for-loop header.
func ParseHeader(loop *cast.For) LoopHeader {
	h := LoopHeader{}
	// Init: `v = expr` or `type v = expr`.
	switch init := loop.Init.(type) {
	case *cast.ExprStmt:
		asg, ok := init.X.(*cast.Assign)
		if !ok || asg.Op != "=" {
			return h
		}
		id, ok := asg.L.(*cast.Ident)
		if !ok {
			return h
		}
		h.Var = id.Name
		h.Lower = ToAffine(asg.R, h.Var)
	case *cast.DeclStmt:
		if len(init.Decls) != 1 || init.Decls[0].Init == nil {
			return h
		}
		h.Var = init.Decls[0].Name
		h.Lower = ToAffine(init.Decls[0].Init, h.Var)
		h.DeclInline = true
	default:
		return h
	}
	if !h.Lower.OK || h.Lower.Coef != 0 {
		return LoopHeader{}
	}

	// Cond: any of `v < expr`, `v <= expr`, `v > expr`, `v >= expr` and the
	// mirrored forms with the variable on the right. The bound side is the
	// non-variable side; inclusivity follows the presence of '='.
	cond, ok := loop.Cond.(*cast.BinaryOp)
	if !ok {
		return LoopHeader{}
	}
	var boundExpr cast.Expr
	switch cond.Op {
	case "<", "<=", ">", ">=":
		if id, ok := cond.L.(*cast.Ident); ok && id.Name == h.Var {
			boundExpr = cond.R
		} else if id, ok := cond.R.(*cast.Ident); ok && id.Name == h.Var {
			boundExpr = cond.L
		} else {
			return LoopHeader{}
		}
		h.Inclusive = cond.Op == "<=" || cond.Op == ">="
	default:
		return LoopHeader{}
	}
	h.Upper = ToAffine(boundExpr, h.Var)
	if !h.Upper.OK || h.Upper.Coef != 0 {
		return LoopHeader{}
	}

	// Post: v++, ++v, v--, v += c, v -= c, v = v + c.
	switch post := loop.Post.(type) {
	case *cast.UnaryOp:
		id, ok := post.X.(*cast.Ident)
		if !ok || id.Name != h.Var {
			return LoopHeader{}
		}
		switch post.Op {
		case "++":
			h.Step = 1
		case "--":
			h.Step = -1
		default:
			return LoopHeader{}
		}
	case *cast.Assign:
		id, ok := post.L.(*cast.Ident)
		if !ok || id.Name != h.Var {
			return LoopHeader{}
		}
		switch post.Op {
		case "+=", "-=":
			lit, ok := post.R.(*cast.IntLit)
			if !ok {
				return LoopHeader{}
			}
			n, err := parseIntLit(lit.Text)
			if err != nil || n == 0 {
				return LoopHeader{}
			}
			if post.Op == "-=" {
				n = -n
			}
			h.Step = n
		case "=":
			// v = v + c or v = c + v
			bin, ok := post.R.(*cast.BinaryOp)
			if !ok || (bin.Op != "+" && bin.Op != "-") {
				return LoopHeader{}
			}
			aff := ToAffine(post.R, h.Var)
			if !aff.OK || aff.Coef != 1 || len(aff.SymCoefs) != 0 {
				return LoopHeader{}
			}
			if aff.Const == 0 {
				return LoopHeader{}
			}
			h.Step = aff.Const
		default:
			return LoopHeader{}
		}
	default:
		return LoopHeader{}
	}
	h.OK = true
	return h
}
