// Package s2s implements source-to-source automatic parallelization
// compilers in the mold of Cetus, AutoPar and Par4All, plus the ComPar
// multi-compiler combiner the paper evaluates against. Each personality
// shares the real dependence analysis in internal/dep but exhibits the
// pitfalls the paper documents for its namesake: fragile parsing (unknown
// keywords such as `register`, typedef'd types, struct-heavy code),
// conservative declines on unknown function bodies, explicit private(i)
// insertion, missed reduction forms, and indifference to iteration-count
// profitability and workload balance.
package s2s

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"pragformer/internal/cast"
	"pragformer/internal/clex"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
	"pragformer/internal/pragma"
)

// Result is one compiler's output for a snippet.
type Result struct {
	// Directive is the inserted OpenMP directive, or nil when the compiler
	// decided not to parallelize.
	Directive *pragma.Directive
	// Reasons carries the compiler's explanation, for diagnostics.
	Reasons []string

	src string // the pragma-stripped source the compiler judged
}

// Source returns the annotated source text: the directive line, when there
// is one, above the pragma-stripped code. It is rendered on each call; the
// advisor reads member verdicts, never a Result.
func (r Result) Source() string {
	if r.Directive == nil {
		return r.src
	}
	return r.Directive.String() + "\n" + r.src
}

// Compiler is a source-to-source auto-parallelizer.
type Compiler interface {
	// Name identifies the compiler personality.
	Name() string
	// Compile parses src, analyzes its first for-loop, and returns the
	// annotated result. A non-nil error models a hard compile failure
	// (the paper's "failed completely to compile" cases).
	Compile(src string) (Result, error)
}

// ErrParse marks hard parse/compile failures.
var ErrParse = errors.New("s2s: compile failed")

// Unit is the one front end of a snippet: the advisor's dependence evidence
// and every member of one CompileUnit call read it. Its front end is pooled
// parses, held until Release. NewUnit parses the text as given; the
// members' token and text checks, and their loop when NewUnit found none,
// read a parse of the pragma-stripped text, which is that same parse when
// the text holds no pragma and is otherwise made when the first member asks.
// The target loop goes through the dependence engine once, into the unit's
// own plain analysis, every view and every member's decision deriving from
// that plain pass. The unit itself is pooled too, its analysis with it, while
// what it hands out is values holding only strings and slices of their own,
// which stay valid after Release. A unit serves one snippet on one
// goroutine; ComPar itself holds no state.
type Unit struct {
	code  string       // as given
	src   string       // pragma-stripped
	tree  *cparse.Tree // NewUnit's parse of code; nil in a text-built unit
	strip *cparse.Tree // the parse of src when tree is not it; nil until a member asks

	given    bool      // NewUnit found the loop: Analysis has a subject
	loop     *cast.For // with funcs and parseErr, nil until found or parsed
	funcs    map[string]*cast.FuncDef
	parseErr error

	analyzed bool         // plain holds the engine's pass over loop
	plain    dep.Analysis // the plain analysis members read
}

var units = sync.Pool{New: func() any { return new(Unit) }}

// newUnit is the text-built unit behind Compile(src) and CompileEach(src),
// borrowed until Release.
func newUnit(code string) *Unit {
	u := units.Get().(*Unit)
	u.code, u.src = code, stripPragmas(code)
	return u
}

// stripped returns the parse of the pragma-stripped text: NewUnit's when the
// text is its own stripped form, else one made on the first ask.
func (u *Unit) stripped() *cparse.Tree {
	if u.tree != nil && u.src == u.code {
		return u.tree
	}
	if u.strip == nil {
		u.strip = cparse.ParseTree(u.src)
	}
	return u.strip
}

// compileText is a member's Compile(src): its decision over a unit of the
// text, alive for that call, rendered.
func compileText(m member, src string) (Result, error) {
	u := newUnit(src)
	defer u.Release()
	return render(m, u)
}

// NewUnit returns the unit of an advised snippet. It parses code as it
// stands, pragma lines included, so race witnesses stay anchored to the
// canonical print of the text the caller holds — a pragma is transparent to
// the analysis, so the members read the same verdict. When code holds no
// loop that parses, Analysis has no header (Header.OK is false) and the
// members take their loop, or their error text, from the parse of the
// stripped text.
func NewUnit(code string) *Unit {
	u := newUnit(code)
	u.tree = cparse.ParseTree(code)
	if len(u.tree.Errs) == 0 { // a recovering parse with no error is the strict parse
		if loop, funcs := target(u.tree.File); loop != nil {
			u.given, u.loop, u.funcs = true, loop, funcs
		}
	}
	return u
}

// Release hands the unit's parses back to the parser pool, and the unit,
// zeroed with its analysis, to its own; call it once, after the unit's last
// read. What the unit handed out — analysis values with their witnesses,
// member verdicts and results — holds only strings and slices of its own,
// and stays valid.
func (u *Unit) Release() {
	for _, t := range [...]*cparse.Tree{u.tree, u.strip} {
		if t != nil {
			t.Release()
		}
	}
	*u = Unit{}
	units.Put(u)
}

// Analysis returns the converted dependence analysis of the loop NewUnit
// found — the advisor's view — as a value that outlives Release; its
// Header.OK is false when NewUnit found no loop.
func (u *Unit) Analysis() dep.Analysis {
	if !u.given {
		return dep.Analysis{}
	}
	return *u.plainAnalysis().Convert()
}

// Tokens returns NewUnit's lex of the text as given, pragmas included, EOF
// last unless the lex failed. It lives in the unit's pooled parse until
// Release. Only a NewUnit unit has one.
func (u *Unit) Tokens() []clex.Token { return u.tree.Tokens() }

// parse extracts the first loop and any function bodies present in the
// snippet text itself. The paper notes S2S compilers suffer from "the lack
// of association of functions, macros, and structure definitions" — they
// only see what is in the segment. The first error of the stripped text's
// recovering parse is the error a strict parse stops at.
func (u *Unit) parse() (*cast.For, map[string]*cast.FuncDef, error) {
	if u.loop == nil && u.parseErr == nil {
		t := u.stripped() // lexed: rejectTokens ran
		if len(t.Errs) > 0 {
			u.parseErr = fmt.Errorf("%w: %v", ErrParse, t.Errs[0])
		} else if u.loop, u.funcs = target(t.File); u.loop == nil {
			u.parseErr = fmt.Errorf("%w: no for-loop in snippet", ErrParse)
		}
	}
	return u.loop, u.funcs, u.parseErr
}

// plainAnalysis is the engine's one pass over the parsed loop, held in the
// unit until Release. Nothing writes to it: members read it, and Compile
// renders a clipped copy of its reasons.
func (u *Unit) plainAnalysis() *dep.Analysis {
	if !u.analyzed {
		dep.AnalyzeLoopInto(&u.plain, u.loop, u.funcs)
		u.analyzed = true
	}
	return &u.plain
}

// stripPragmas removes existing pragma lines so compilers judge bare code.
func stripPragmas(src string) string {
	if !strings.Contains(src, "#pragma") {
		return src
	}
	var out []string
	for _, line := range strings.Split(src, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "#pragma") {
			continue
		}
		out = append(out, line)
	}
	return strings.Join(out, "\n")
}

// target returns a parsed snippet's target loop (nil when it holds none) and
// the function bodies in sight of it, nil when there are none.
func target(f *cast.File) (*cast.For, map[string]*cast.FuncDef) {
	var funcs map[string]*cast.FuncDef
	for _, it := range f.Items {
		if fd, ok := it.(*cast.FuncDef); ok {
			if funcs == nil {
				funcs = map[string]*cast.FuncDef{}
			}
			funcs[fd.Name] = fd
		}
	}
	return FirstLoop(f), funcs
}

// FirstLoop returns the snippet's target loop: the first for-loop outside
// any function definition (helper bodies may contain their own loops), or
// the first loop anywhere as a fallback.
func FirstLoop(f *cast.File) *cast.For {
	var fallback *cast.For
	for _, it := range f.Items {
		if _, isFunc := it.(*cast.FuncDef); isFunc {
			if fallback == nil {
				cast.Walk(it, func(n cast.Node) bool {
					if l, ok := n.(*cast.For); ok && fallback == nil {
						fallback = l
						return false
					}
					return true
				})
			}
			continue
		}
		var loop *cast.For
		cast.Walk(it, func(n cast.Node) bool {
			if l, ok := n.(*cast.For); ok && loop == nil {
				loop = l
				return false
			}
			return true
		})
		if loop != nil {
			return loop
		}
	}
	return fallback
}

// rejectTokens scans the raw token stream for constructs a fragile frontend
// chokes on and returns a hard error when one is found.
func rejectTokens(u *Unit, name string, rejects map[string]bool, rejectStruct, rejectTypedefed bool) error {
	tree := u.stripped()
	toks := tree.Tokens()
	if len(toks) == 0 || toks[len(toks)-1].Kind != clex.EOF { // the lex failed
		return fmt.Errorf("%w: %s: %s", ErrParse, name, tree.Errs[0].Msg)
	}
	for i, t := range toks {
		switch t.Kind {
		case clex.Keyword:
			if rejects[t.Text] {
				return fmt.Errorf("%w: %s: unrecognized keyword %q", ErrParse, name, t.Text)
			}
			if rejectStruct && (t.Text == "struct" || t.Text == "union") {
				return fmt.Errorf("%w: %s: unsupported construct %q", ErrParse, name, t.Text)
			}
		case clex.Ident:
			if rejectTypedefed && nonStandardTypes[t.Text] {
				return fmt.Errorf("%w: %s: unknown type %q", ErrParse, name, t.Text)
			}
			// Unexpanded function-like macros (POLYBENCH_LOOP_BOUND(...))
			// defeat frontends that expect preprocessed input.
			if looksLikeMacro(t.Text) && i+1 < len(toks) && toks[i+1].Text == "(" {
				return fmt.Errorf("%w: %s: unexpanded macro %q", ErrParse, name, t.Text)
			}
		case clex.Punct:
			if rejectStruct && (t.Text == "->" || t.Text == ".") {
				return fmt.Errorf("%w: %s: unsupported member access", ErrParse, name)
			}
		}
	}
	return nil
}

// looksLikeMacro reports whether an identifier follows the ALL_CAPS macro
// convention (≥4 chars, no lowercase).
func looksLikeMacro(s string) bool {
	if len(s) < 4 {
		return false
	}
	hasAlpha := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' {
			return false
		}
		if c >= 'A' && c <= 'Z' {
			hasAlpha = true
		}
	}
	return hasAlpha
}

// nonStandardTypes are typedef names that require headers the S2S frontends
// do not consume (the paper's SPEC failures: ssize_t, IndexPacket, ...).
var nonStandardTypes = map[string]bool{
	"ssize_t": true, "IndexPacket": true, "PixelPacket": true,
	"MagickBooleanType": true, "real_t": true,
}
