package s2s

import (
	"fmt"
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

// MemberVerdict is one member compiler's outcome on a snippet. Err is the
// member's compile failure; Result is meaningful only when Err is nil.
type MemberVerdict struct {
	Compiler string
	Result   Result
	Err      error
}

// member is a compiler ComPar combines: one that compiles from a shared
// front end, its Compile(src) being compileText(m, src).
type member interface {
	Compiler
	compile(*Unit) (Result, error)
}

// CompileEach runs every member compiler and returns the per-member
// verdicts in Members order: CompileUnit over a unit built from the text.
func (c *ComPar) CompileEach(src string) []MemberVerdict { return c.CompileUnit(newUnit(src)) }

// CompileUnit is the evidence form the advisor attaches to corroborated
// suggestions, where "which compiler parallelized" matters, not just the
// combined best. The members share the unit, so the snippet is lexed, parsed
// and analyzed once, not per member — and not at all where the unit's maker
// already did.
func (c *ComPar) CompileUnit(u *Unit) []MemberVerdict {
	defer u.releaseTokens()
	out := make([]MemberVerdict, 0, len(c.Members))
	for _, m := range c.Members {
		res, err := m.compile(u)
		out = append(out, MemberVerdict{Compiler: m.Name(), Result: res, Err: err})
	}
	return out
}

// Compile implements Compiler: runs all members and keeps the best result.
func (c *ComPar) Compile(src string) (Result, error) {
	var (
		best    Result
		bestSet bool
		lastErr error
	)
	for _, v := range c.CompileEach(src) {
		if v.Err != nil {
			lastErr = v.Err
			continue
		}
		if !bestSet || score(v.Result) > score(best) {
			best = v.Result
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
