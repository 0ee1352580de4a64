package s2s

import (
	"fmt"
	"strings"

	"pragformer/internal/dep"
	"pragformer/internal/pragma"
)

// AutoPar models ROSE's AutoPar: sound dependence analysis but a frontend
// that cannot digest typedef'd types, struct member access, or do-while
// loops, and a clause generator that knows private but not reduction — any
// reduction-shaped scalar makes the loop look like a carried dependence and
// the directive is withheld.
type AutoPar struct{}

// Name implements Compiler.
func (AutoPar) Name() string { return "AutoPar" }

// Compile implements Compiler.
func (c AutoPar) Compile(src string) (Result, error) { return compileText(c, src) }

func (c AutoPar) decide(u *Unit) (bool, string, error) {
	src := u.src
	if err := rejectTokens(u, c.Name(), map[string]bool{
		"register": true, "restrict": true, "typedef": true, "goto": true,
	}, true, true); err != nil {
		return false, "", err
	}
	if strings.Contains(src, "do") && strings.Contains(src, "while") && containsDoWhile(src) {
		return false, "", errDoWhile
	}
	if _, _, err := u.parse(); err != nil {
		return false, "", err
	}
	a := u.plainAnalysis()
	if !a.Parallelizable {
		return false, "", nil
	}
	if len(a.Reductions) > 0 {
		return false, "reduction idiom treated as carried dependence", nil
	}
	return true, "", nil
}

// errDoWhile is AutoPar's rejection of a do-while loop: one constant error,
// as Par4All's errUnresolvedCall is.
var errDoWhile = fmt.Errorf("%w: AutoPar: do-while not supported", ErrParse)

func (AutoPar) directive(a *dep.Analysis) *pragma.Directive {
	d := &pragma.Directive{ParallelFor: true}
	d.Private = append(d.Private, a.Header.Var)
	d.Private = append(d.Private, a.Private...)
	return d
}

// containsDoWhile performs a crude textual check for a do { ... } while.
func containsDoWhile(src string) bool {
	for i := 0; i+2 < len(src); i++ {
		if src[i] == 'd' && src[i+1] == 'o' &&
			(i == 0 || !identChar(src[i-1])) && !identChar(src[i+2]) {
			return true
		}
	}
	return false
}
