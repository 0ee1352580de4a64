package dep

import (
	"strconv"
	"strings"

	"pragformer/internal/cast"
)

// A race witness is the structured "why" behind a refuted loop: the
// dependence kind, the two access sites, their subscript texts, and the
// per-level direction/distance vector. Witness positions are line/column
// inside the canonical Print rendering of the analyzed loop, so the same
// loop yields identical witnesses whether it arrived through a repo scan
// or a snippet posted to the HTTP API.

// Site is one endpoint of a race witness.
type Site struct {
	Expr  string `json:"expr"`
	Write bool   `json:"write"`
	Line  int    `json:"line,omitempty"`
	Col   int    `json:"col,omitempty"`
}

// Witness describes one loop-carried (or unprovably absent) dependence.
type Witness struct {
	Array    string   `json:"array"`
	Kind     string   `json:"kind"` // flow | anti | output | unknown
	Source   Site     `json:"source"`
	Sink     Site     `json:"sink"`
	Vector   []string `json:"vector,omitempty"`   // per nest level: "<" "=" ">" "*"
	Distance string   `json:"distance,omitempty"` // e.g. "(1)", "(0,*)"
	Reason   string   `json:"reason,omitempty"`

	srcNode cast.Expr
	dstNode cast.Expr
}

// Concrete reports whether the witness pins an actual dependence (as
// opposed to an analysis bail-out on subscripts it could not model).
func (w Witness) Concrete() bool { return w.Kind != "unknown" }

// String renders a one-line summary used in human-readable reports.
func (w Witness) String() string {
	dist := ""
	if w.Distance != "" {
		dist = " distance "
	}
	return w.Kind + " dependence on " + w.Array + ": " + w.Source.Expr + " -> " + w.Sink.Expr + dist + w.Distance
}

// vectorOf builds fresh direction and distance vectors over the nest levels
// from the merged distance facts of a pair. sign is -1 when source and sink
// were swapped into lexicographically positive order, which flips every
// distance.
func (ns *nestSpace) vectorOf(rel pairRel, sign int64) (vec []string, dist string) {
	vec = make([]string, len(ns.levels))
	var b strings.Builder
	b.WriteByte('(')
	for l, s := range ns.levels {
		if l > 0 {
			b.WriteByte(',')
		}
		d := sign * rel.dist[s]
		switch {
		case !rel.known[s]:
			vec[l] = "*"
			b.WriteByte('*')
			continue
		case d == 0:
			vec[l] = "="
		case d > 0:
			vec[l] = "<"
		default:
			vec[l] = ">"
		}
		b.WriteString(strconv.FormatInt(d, 10))
	}
	b.WriteByte(')')
	return vec, b.String()
}

// buildWitness assembles a witness for a refuting pair. w must be the write
// access; other may be a read or another write.
func (ns *nestSpace) buildWitness(name string, w, other *access, rel pairRel) Witness {
	const outer = 0
	d, known := rel.dist[outer], rel.known[outer]

	src, dst := w, other
	srcWrite, dstWrite := true, other.write || other.accumOp != ""
	sign := int64(1)
	// Normalize to a lexicographically positive vector: a negative outer
	// distance means the "other" access's iteration precedes the write's.
	if known && d < 0 {
		src, dst = other, w
		srcWrite, dstWrite = dstWrite, srcWrite
		sign = -1
	} else if !known && other.order < w.order && !other.write {
		// Unknown distance: use textual order to orient read-then-write.
		src, dst = other, w
		srcWrite, dstWrite = dstWrite, srcWrite
	}

	kind := "flow"
	switch {
	case srcWrite && dstWrite:
		kind = "output"
	case srcWrite && !dstWrite:
		kind = "flow"
	default:
		kind = "anti"
	}

	vec, dist := ns.vectorOf(rel, sign)
	return Witness{
		Array:    name,
		Kind:     kind,
		Source:   Site{Expr: siteExpr(src), Write: srcWrite},
		Sink:     Site{Expr: siteExpr(dst), Write: dstWrite},
		Vector:   vec,
		Distance: dist,
		srcNode:  src.node,
		dstNode:  dst.node,
	}
}

// bailWitness records an analysis bail-out (non-affine subscript or
// mismatched dimensionality) with both sites but no vector.
func bailWitness(name string, w, other *access, reason string) Witness {
	return Witness{
		Array:   name,
		Kind:    "unknown",
		Source:  Site{Expr: siteExpr(w), Write: true},
		Sink:    Site{Expr: siteExpr(other), Write: other.write},
		Reason:  reason,
		srcNode: w.node,
		dstNode: other.node,
	}
}

func siteExpr(a *access) string {
	if a.node != nil {
		return cast.PrintExpr(a.node)
	}
	return a.name
}

// scalarWitness builds the witness for a scalar read-modify-write carried
// across iterations: consecutive iterations conflict, so the outer distance
// is exactly one.
func (a *Analysis) scalarWitness(ctx *collector, name string) Witness {
	var wAcc, rAcc *access
	for i := range ctx.accesses {
		acc := &ctx.accesses[i]
		if acc.subs != nil || acc.name != name {
			continue
		}
		if acc.write && wAcc == nil {
			wAcc = acc
		}
		if !acc.write && rAcc == nil {
			rAcc = acc
		}
	}
	depth := a.NestDepth
	if depth < 1 {
		depth = 1
	}
	vec := make([]string, depth)
	dparts := make([]string, depth)
	vec[0], dparts[0] = "<", "1"
	for i := 1; i < depth; i++ {
		vec[i], dparts[i] = "*", "*"
	}
	w := Witness{
		Array:    name,
		Kind:     "flow",
		Vector:   vec,
		Distance: "(" + strings.Join(dparts, ",") + ")",
		Reason:   "scalar read-modify-write across iterations",
	}
	if wAcc != nil {
		w.Source = Site{Expr: siteExpr(wAcc), Write: true}
		w.srcNode = wAcc.node
	} else {
		w.Source = Site{Expr: name, Write: true}
	}
	if rAcc != nil {
		w.Sink = Site{Expr: siteExpr(rAcc)}
		w.dstNode = rAcc.node
	} else {
		w.Sink = w.Source
		w.dstNode = w.srcNode
	}
	return w
}

// fillWitnessPositions renders the loop once and anchors every witness site
// to its line/column in the canonical snippet text.
func (a *Analysis) fillWitnessPositions(loop *cast.For) {
	if len(a.Witnesses) == 0 {
		return
	}
	var targets []cast.Node
	for i := range a.Witnesses {
		if n := a.Witnesses[i].srcNode; n != nil {
			targets = append(targets, n)
		}
		if n := a.Witnesses[i].dstNode; n != nil {
			targets = append(targets, n)
		}
	}
	if len(targets) == 0 {
		return
	}
	_, marks := cast.PrintPositions(loop, targets)
	for i := range a.Witnesses {
		w := &a.Witnesses[i]
		if p, ok := marks[w.srcNode]; ok && w.srcNode != nil {
			w.Source.Line, w.Source.Col = p.Line, p.Col
		}
		if p, ok := marks[w.dstNode]; ok && w.dstNode != nil {
			w.Sink.Line, w.Sink.Col = p.Line, p.Col
		}
		// A witness outlives the analysis (reports and verdict stores keep
		// it); it must not keep the loop's AST alive with it.
		w.srcNode, w.dstNode = nil, nil
	}
}
