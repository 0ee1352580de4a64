package cparse

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/clex"
	"pragformer/internal/corpus"
)

func TestParseRecoverCleanInput(t *testing.T) {
	src := "void f(int *x, int n) {\n    int i;\n    for (i = 0; i < n; i++) x[i] = i;\n}\n"
	f, errs := ParseRecover(src)
	if len(errs) != 0 {
		t.Fatalf("errors on clean input: %v", errs)
	}
	want, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Items) != len(want.Items) {
		t.Errorf("recovered %d items, Parse found %d", len(f.Items), len(want.Items))
	}
}

func TestParseRecoverBrokenFunctionKeepsSiblings(t *testing.T) {
	src := "void bad(int *x, int n) {\n" +
		"    int i;\n" +
		"    for (i = 0; i < n; i++ {\n" + // missing ')'
		"        x[i] = i;\n" +
		"    }\n" +
		"}\n" +
		"void good(double *y, int n) {\n" +
		"    int j;\n" +
		"    for (j = 0; j < n; j++) y[j] = y[j] * 2.0;\n" +
		"}\n"
	f, errs := ParseRecover(src)
	if len(errs) != 1 {
		t.Fatalf("errors = %v, want exactly one", errs)
	}
	if errs[0].Line != 3 || errs[0].Col == 0 {
		t.Errorf("error position = %d:%d, want line 3 (the malformed for-header)", errs[0].Line, errs[0].Col)
	}
	loops := cast.ExtractLoops(f)
	if len(loops) != 1 {
		t.Fatalf("recovered %d loops, want the one from good()", len(loops))
	}
	if loops[0].Function != "good" {
		t.Errorf("recovered loop belongs to %q, want good", loops[0].Function)
	}
}

func TestParseRecoverBrokenDeclaration(t *testing.T) {
	src := "int x = ;\n" +
		"void f(int *a, int n) {\n" +
		"    int i;\n" +
		"    for (i = 0; i < n; i++) a[i] = 0;\n" +
		"}\n"
	f, errs := ParseRecover(src)
	if len(errs) == 0 {
		t.Fatal("broken declaration produced no error")
	}
	if errs[0].Line == 0 {
		t.Errorf("error carries no position: %v", errs[0])
	}
	if len(cast.ExtractLoops(f)) != 1 {
		t.Error("loop after the broken declaration was lost")
	}
}

func TestParseRecoverNothingParseable(t *testing.T) {
	f, errs := ParseRecover("= = = ) }")
	if len(f.Items) != 0 {
		t.Errorf("items = %v, want none", f.Items)
	}
	if len(errs) == 0 {
		t.Error("garbage input produced no errors")
	}
	for _, e := range errs {
		if strings.Contains(e.Msg, "cparse: line") {
			t.Errorf("error message double-renders its position: %q", e.Msg)
		}
	}
}

func TestParseRecoverTerminates(t *testing.T) {
	// Inputs that once risked non-progress: lone closers, unterminated
	// openers, EOF mid-statement.
	for _, src := range []string{"}", "{", "(", ";", "for (", "int", "a b c d"} {
		ParseRecover(src) // must not hang or panic
	}
}

// TestRecoverKeepsCleanItems injects one parse error into one function of a
// multi-function file — the first '=' of its body doubled, `a = b` becoming
// `a = = b`, braces and line count unchanged — and holds ParseRecover to
// what it gave on the file as written for every loop outside that function:
// same enclosing function, depth, position and canonical print. The files
// are every multi-function file of examples/scantree and files of corpus
// records, each wrapped in a function of its own, six to a file.
func TestRecoverKeepsCleanItems(t *testing.T) {
	var files []string
	err := filepath.WalkDir(filepath.Join("..", "..", "examples", "scantree"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".c" {
			return err
		}
		data, err := os.ReadFile(path)
		if err == nil && len(funcBodies(t, string(data))) > 1 {
			files = append(files, string(data))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fixtures := len(files)
	var wrapped []string
	for _, r := range corpus.Generate(corpus.Config{Seed: 1, Total: 300}).Records {
		fn := fmt.Sprintf("void kernel%d(void) {\n%s\n}\n", len(wrapped), r.Code)
		if _, errs := ParseRecover(fn); len(errs) == 0 {
			wrapped = append(wrapped, fn)
		}
	}
	for len(wrapped) >= 6 && len(files) < fixtures+20 {
		files = append(files, strings.Join(wrapped[:6], "\n"))
		wrapped = wrapped[6:]
	}
	if fixtures < 3 || len(files) < fixtures+20 {
		t.Fatalf("%d fixture files and %d generated ones; want at least 3 and 20", fixtures, len(files)-fixtures)
	}

	variants := 0
	for _, src := range files {
		clean, _ := ParseRecover(src)
		for k, body := range funcBodies(t, src) {
			broken, line, ok := injectError(t, src, body)
			if !ok {
				continue
			}
			f, errs := ParseRecover(broken)
			if !slices.ContainsFunc(errs, func(e *Error) bool { return e.Line == line }) {
				t.Fatalf("function %d: no error at the injected line %d: %v\n%s", k, line, errs, broken)
			}
			want, got := loopsOutside(clean, body), loopsOutside(f, body)
			if !slices.Equal(got, want) {
				t.Errorf("error injected at line %d of function %d: loops outside it\n got %q\nwant %q\nin\n%s", line, k, got, want, broken)
			}
			variants++
		}
	}
	t.Logf("%d injected variants over %d files (%d fixtures)", variants, len(files), fixtures)
	if variants < 120 {
		t.Fatalf("only %d injected variants", variants)
	}
}

// funcBody is one function body: the token range of its braces and the
// lines they are on.
type funcBody struct {
	open, close int // token indices of '{' and its matching '}'
	from, to    int // their lines
}

// funcBodies finds the function bodies of src: every '{' at nesting depth
// zero that follows a ')', to its matching '}'.
func funcBodies(t *testing.T, src string) []funcBody {
	t.Helper()
	toks, err := clex.Append(nil, src)
	if err != nil {
		t.Fatal(err)
	}
	var out []funcBody
	depth := 0
	for i, tok := range toks {
		switch tok.Text {
		case "{":
			if depth == 0 && i > 0 && toks[i-1].Text == ")" {
				out = append(out, funcBody{open: i, from: tok.Line})
			}
			depth++
		case "}":
			depth--
			if n := len(out); depth == 0 && n > 0 && out[n-1].close == 0 {
				out[n-1].close, out[n-1].to = i, tok.Line
			}
		}
	}
	return out
}

// injectError doubles the first '=' token of a function body and returns the
// text with the line it is on; ok is false when the body has none.
func injectError(t *testing.T, src string, body funcBody) (broken string, line int, ok bool) {
	t.Helper()
	toks, _ := clex.Append(nil, src)
	for _, tok := range toks[body.open:body.close] {
		if tok.Kind != clex.Punct || tok.Text != "=" {
			continue
		}
		off := 0
		for _, l := range strings.SplitAfter(src, "\n")[:tok.Line-1] {
			off += len(l)
		}
		off += tok.Col // just past the '='
		if src[off-1] != '=' {
			t.Fatalf("token %v is not at byte %d", tok, off-1)
		}
		return src[:off] + " =" + src[off:], tok.Line, true
	}
	return "", 0, false
}

// loopsOutside renders every loop of f outside the body's lines: enclosing
// function, depth, position and canonical print.
func loopsOutside(f *cast.File, body funcBody) []string {
	var out []string
	for _, li := range cast.ExtractLoops(f) {
		if li.Loop.Line < body.from || li.Loop.Line > body.to {
			out = append(out, fmt.Sprintf("%s depth %d at %d:%d\n%s", li.Function, li.Depth, li.Loop.Line, li.Loop.Col, cast.Print(li.Loop)))
		}
	}
	return out
}
