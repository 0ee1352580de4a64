package s2s

import (
	"fmt"

	"pragformer/internal/cast"
	"pragformer/internal/dep"
	"pragformer/internal/pragma"
)

// Par4All models the Par4All compiler as the paper observed it: on this
// corpus it fails to compile nearly everything ("only Cetus managed to
// compile the examples successfully"). Its frontend accepts only
// self-contained array loops: no function calls of any kind, no structs,
// no typedefs, no floating literals with suffixes, no nested declarations.
type Par4All struct{}

// Name implements Compiler.
func (Par4All) Name() string { return "Par4All" }

// Compile implements Compiler.
func (c Par4All) Compile(src string) (Result, error) { return compileText(c, src) }

func (c Par4All) decide(u *Unit) (bool, string, error) {
	if err := rejectTokens(u, c.Name(), map[string]bool{
		"register": true, "restrict": true, "typedef": true, "goto": true,
		"switch": true, "do": true, "while": true, "static": true,
	}, true, true); err != nil {
		return false, "", err
	}
	loop, funcs, err := u.parse()
	if err != nil {
		return false, "", err
	}
	// Any call — even a math builtin — defeats Par4All's interprocedural
	// phase on bare snippets.
	var hasCall bool
	cast.Walk(loop, func(n cast.Node) bool {
		if _, ok := n.(*cast.FuncCall); ok {
			hasCall = true
			return false
		}
		return true
	})
	if hasCall || len(funcs) > 0 {
		return false, "", errUnresolvedCall
	}
	// No call and no function body in sight: the shared analysis, run with
	// the snippet's (empty) function table, is the one Par4All would run.
	a := u.plainAnalysis()
	if !a.Parallelizable {
		return false, "", nil
	}
	if len(a.Reductions) > 0 || len(a.Private) > 0 {
		// Par4All privatization on bare snippets is unreliable; it declines.
		return false, "privatization phase declined the loop", nil
	}
	return true, "", nil
}

// errUnresolvedCall is Par4All's rejection of a region with a call. Its
// text never changes, so it is one error, and a verdict keeps its message
// without building it.
var errUnresolvedCall = fmt.Errorf("%w: Par4All: unresolved call in region", ErrParse)

func (Par4All) directive(*dep.Analysis) *pragma.Directive {
	return &pragma.Directive{ParallelFor: true}
}
