package s2s

import (
	"fmt"
	"slices"

	"pragformer/internal/dep"
	"pragformer/internal/pragma"
)

// ComPar models the ComPar multi-compiler (Mosseri et al. 2020): it runs
// Par4All, AutoPar and Cetus, and combines their outputs, choosing the
// "best" directive — the one that parallelizes with the richest clause set.
// A snippet fails to compile only when every member compiler fails, which
// in practice means failure tracks Cetus's frontend (the paper: "only Cetus
// managed to compile the examples successfully").
type ComPar struct {
	// Members are the combined compilers; NewComPar wires the default trio.
	Members []member
}

// NewComPar returns the default ComPar configuration.
func NewComPar() *ComPar {
	return &ComPar{Members: []member{Par4All{}, AutoPar{}, Cetus{}}}
}

// Name implements Compiler.
func (*ComPar) Name() string { return "ComPar" }

// MemberVerdict is one member compiler's outcome on a snippet, kept as
// corroboration evidence. It is also the scan report's and the wire's S2S
// item (scan.S2SVerdict), its fields in key order.
type MemberVerdict struct {
	// Compiler is the member name (Par4All, AutoPar, Cetus — or the
	// name of a stub compiler a test corroborates with).
	Compiler string `json:"compiler"`
	// Compiled is false when the compiler's frontend rejected the snippet.
	Compiled     bool `json:"compiled"`
	Parallelized bool `json:"parallelized,omitempty"`
	// Detail carries the compile error or the decisive reason the compiler
	// declined to parallelize.
	Detail string `json:"detail,omitempty"`
}

// Flatten is the verdict form of a Compile result: the error text, or the
// last of the reasons of a result without a directive — the decisive one,
// since members append their own on exit. CompileUnit's verdicts read the
// same without a Result; a compiler that is not a member goes through here.
func Flatten(name string, res Result, err error) MemberVerdict {
	v := MemberVerdict{Compiler: name}
	if err != nil {
		v.Detail = err.Error()
		return v
	}
	v.Compiled = true
	v.Parallelized = res.Directive != nil
	if !v.Parallelized && len(res.Reasons) > 0 {
		v.Detail = res.Reasons[len(res.Reasons)-1]
	}
	return v
}

// member is a compiler ComPar combines. It decides once over a shared front
// end: an error when its frontend rejects the snippet, else whether it
// parallelizes the loop and, when it leaves a loop the analysis found
// parallelizable serial, its own reason. Only Compile builds the directive
// it would insert; its Compile(src) is compileText(m, src).
type member interface {
	Compiler
	decide(*Unit) (parallel bool, decline string, err error)
	directive(*dep.Analysis) *pragma.Directive
}

// verdict is m's decision on u in the form a suggestion keeps: what Flatten
// gives for m's Compile, built without a directive or a reason list.
func verdict(m member, u *Unit) MemberVerdict {
	parallel, decline, err := m.decide(u)
	v := MemberVerdict{Compiler: m.Name(), Compiled: err == nil, Parallelized: parallel, Detail: decline}
	if err != nil {
		v.Detail = err.Error()
	} else if r := u.plainAnalysis().Reasons; !parallel && decline == "" && len(r) > 0 {
		v.Detail = r[len(r)-1]
	}
	return v
}

// render is m's decision on u as a Compile result: the analysis' reasons,
// the member's own decline appended, and the directive it inserts.
func render(m member, u *Unit) (Result, error) {
	parallel, decline, err := m.decide(u)
	if err != nil {
		return Result{}, err
	}
	a := u.plainAnalysis()
	res := Result{Reasons: slices.Clip(a.Reasons), src: u.src}
	if decline != "" {
		res.Reasons = append(res.Reasons, decline)
	}
	if parallel {
		res.Directive = m.directive(a)
	}
	return res, nil
}

// CompileEach runs every member compiler and returns the per-member
// verdicts in Members order: CompileUnit over a unit built from the text.
func (c *ComPar) CompileEach(src string) []MemberVerdict {
	u := newUnit(src)
	defer u.Release()
	return c.CompileUnit(u)
}

// CompileUnit is the evidence form the advisor attaches to corroborated
// suggestions, where "which compiler parallelized" matters, not just the
// combined best. The members share the unit, so the snippet is parsed and
// analyzed once, not per member — and not at all where the unit's maker
// already did. Each member's verdict is written into the one slice returned.
func (c *ComPar) CompileUnit(u *Unit) []MemberVerdict {
	out := make([]MemberVerdict, len(c.Members))
	for i, m := range c.Members {
		out[i] = verdict(m, u)
	}
	return out
}

// Compile implements Compiler: runs all members over one unit of the text
// and keeps the best result.
func (c *ComPar) Compile(src string) (Result, error) {
	u := newUnit(src)
	defer u.Release()
	var (
		best    Result
		bestSet bool
		lastErr error
	)
	for _, m := range c.Members {
		res, err := render(m, u)
		if err != nil {
			lastErr = err
			continue
		}
		if !bestSet || score(res) > score(best) {
			best = res
			bestSet = true
		}
	}
	if !bestSet {
		return Result{}, fmt.Errorf("%w: ComPar: all member compilers failed (%v)", ErrParse, lastErr)
	}
	return best, nil
}

// score ranks results: any directive beats none; richer clause sets win.
func score(r Result) int {
	if r.Directive == nil {
		return 0
	}
	s := 10
	s += len(r.Directive.Private)
	s += 2 * len(r.Directive.Reductions)
	if r.Directive.Schedule != 0 {
		s++
	}
	return s
}
