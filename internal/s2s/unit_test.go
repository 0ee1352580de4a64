package s2s

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/clex"
	"pragformer/internal/corpus"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
)

// pinnedErrors are inputs every member rejects, with each member's Compile
// error text, recorded while the members lexed into a borrowed token buffer
// and strictly parsed those tokens: a lex error, a parse error, no loop, and
// a `#pragma` line that closes a block comment, so that the stripped text
// no longer lexes while the text as given parses. %s is the member's name.
var pinnedErrors = []struct{ src, err string }{
	{"for (i = 0; i < n; i++) a[i] = b[i] @ 2;",
		"s2s: compile failed: %s: clex: line 1 col 37: unexpected character '@'"},
	{"for (i = 0; i < n; i++) a[i] = (b[i] + ;",
		`s2s: compile failed: cparse: line 1 col 40: unexpected token ";" in expression`},
	{"a[0] = b[0] + 1;",
		"s2s: compile failed: no for-loop in snippet"},
	{"/* note\n#pragma omp parallel for */\nfor (i = 0; i < n; i++) a[i] = b[i];",
		"s2s: compile failed: %s: clex: line 2 col 37: unterminated block comment"},
}

// TestMemberErrorTexts holds every member's error text on pinnedErrors to
// the recorded one, compiled from the text and corroborating an advised unit.
func TestMemberErrorTexts(t *testing.T) {
	c := NewComPar()
	for _, pin := range pinnedErrors {
		u := NewUnit(pin.src)
		vs := c.CompileUnit(u)
		u.Release()
		for i, m := range c.Members {
			want := pin.err
			if strings.Contains(want, "%s") {
				want = fmt.Sprintf(want, m.Name())
			}
			if _, err := m.Compile(pin.src); err == nil || err.Error() != want {
				t.Errorf("%s on %q: Compile error %v, want %q", m.Name(), pin.src, err, want)
			}
			if vs[i].Compiled || vs[i].Detail != want {
				t.Errorf("%s on %q: verdict %+v, want the error %q", m.Name(), pin.src, vs[i], want)
			}
		}
	}
}

// equivalenceInputs is the bounded instance set the shared front end earns
// its trust on: every corpus template at two seeds, every loop of the scan
// fixture tree (canonical print, as the scanner hands it over) plus the raw
// files, the parser fuzzer's hand-picked seeds, and what separates the
// advisor's view of a snippet from the members': pragma lines (which the
// members strip and the advisor keeps) above the loop and inside its body,
// function definitions beside the loop, text that does not parse, and the
// inputs whose error texts are pinned.
func equivalenceInputs(t *testing.T) []string {
	t.Helper()
	var srcs []string
	templates := map[string]bool{}
	for _, seed := range []int64{1, 2} {
		perSeed := map[string]bool{}
		for _, r := range corpus.Generate(corpus.Config{Seed: seed, Total: 1500}).Records {
			if !perSeed[r.Template] {
				perSeed[r.Template] = true
				templates[r.Template] = true
				srcs = append(srcs, r.Code)
			}
		}
	}
	if len(templates) < 30 {
		t.Fatalf("only %d corpus templates drawn; raise Total", len(templates))
	}
	err := filepath.WalkDir(filepath.Join("..", "..", "examples", "scantree"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".c") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		srcs = append(srcs, string(data))
		f, _ := cparse.ParseRecover(string(data))
		for _, li := range cast.ExtractLoops(f) {
			srcs = append(srcs, cast.Print(li.Loop))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srcs = append(srcs,
		"for (i = 0; i < n; i++) a[i] = b[i];",
		"void f() { for (;;) {} }",
		"int x = ;",
		"#pragma omp parallel for\nfor (i = 0; i < n; i++) s += a[i];",
		"int x = {1, {2}};",
		"a->b.c[d](e, f)++;",
		"x = (ssize_t) y;",
		"do ; while (0);",
		"for (i = 0; i < n; i++) s = s + a[i];",
		"for (i = 0; i < 2; i++) a[i] = 0;",
		"for (i = 0; i < n; i++) { t = a[i]; b[i] = t * t; }",
		"for (i = 0; i < n; i++) a[i] = \"unterminated;",
		"",
		"#pragma omp parallel for private(t)\nfor (i = 1; i < n; i++) {\n    t = a[i - 1];\n    a[i] = t + 1;\n}",
		"for (i = 0; i < n; i++) {\n    #pragma omp simd\n    for (j = 1; j < m; j++)\n        a[i][j] = a[i][j - 1] + b[j];\n}",
		"for (i = 0; i < n; i++) {\n    s = 0;\n#pragma omp critical\n    h[k[i]] += w[i];\n    #pragma omp barrier\n}",
		"#pragma omp parallel\n{\n#pragma omp for\nfor (i = 0; i < n; i++) tmp[0] = a[i], b[i] = tmp[0];\n}",
		"double sq(double x) { return x * x; }\nfor (i = 0; i < n; i++) b[i] = sq(a[i]);",
		"int g;\nvoid bump(int k) { g += k; }\n#pragma omp parallel for\nfor (i = 0; i < n; i++) bump(i);",
		"void f(int n) { for (i = 1; i < n; i++) a[i] = a[i - 1]; }",
		"#pragma omp parallel for\nfor (i = 0; i < n; i++ { a[i] = 0; }",
		"for (i = 0; i < n; i++) {\n#pragma omp atomic\n    s += a[i]\n}",
		"#pragma omp parallel for\nx = y;",
	)
	for _, pin := range pinnedErrors {
		srcs = append(srcs, pin.src)
	}
	return srcs
}

// sameVerdict compares a shared-front-end verdict with the flattened
// independent compile of the same member: whether it compiled and
// parallelized, and the detail, error text included.
func sameVerdict(t *testing.T, src string, v MemberVerdict, m Compiler) {
	t.Helper()
	res, err := m.Compile(src)
	if want := Flatten(m.Name(), res, err); v != want {
		t.Errorf("%s on %q:\nshared      %+v\nindependent %+v", m.Name(), src, v, want)
	}
}

// views is a unit's dependence evidence, as values: the plain analysis the
// members read and the converted one the advisor reads; nil when NewUnit
// found no loop.
func views(u *Unit) []dep.Analysis {
	if !u.given {
		return nil
	}
	return []dep.Analysis{*u.plainAnalysis(), u.Analysis()}
}

// aloneAnalyses compares the dependence evidence a unit hands the advisor
// and the members, witness positions included, with the engine run apart
// over the loop and function table the unit found.
func aloneAnalyses(t *testing.T, src string, u *Unit) {
	t.Helper()
	if va := views(u); va != nil {
		plain := dep.AnalyzeLoop(u.loop, u.funcs)
		if alone := []dep.Analysis{*plain, *plain.Convert()}; !reflect.DeepEqual(va, alone) {
			t.Errorf("on %q:\nunit  %+v\nalone %+v", src, va, alone)
		}
	}
}

// TestCompileEachMatchesIndependentCompile is the equivalence the shared
// front end rests on: whatever one lex, one parse and one engine pass give
// the advisor and the three members is what each would have computed alone —
// whether the unit was built from the text (CompileEach) or over the
// advisor's parse of the text with its pragmas (NewUnit), of each input and
// of the canonical print of each loop in it, as a scan advises it, error
// text included; also when eight goroutines share one ComPar — and the
// members' results rendered over one unit are their own Compile(src)
// results, no member's Reasons aliasing another's.
func TestCompileEachMatchesIndependentCompile(t *testing.T) {
	c := NewComPar()
	srcs := equivalenceInputs(t)
	printed := 0
	for _, src := range srcs {
		vs := c.CompileEach(src)
		for i, v := range vs {
			sameVerdict(t, src, v, c.Members[i])
		}
		advised := NewUnit(src)
		advised.Analysis() // as the advisor does, before the members run
		for i, v := range c.CompileUnit(advised) {
			sameVerdict(t, src, v, c.Members[i])
		}
		f, _ := cparse.ParseRecover(src)
		for _, li := range cast.ExtractLoops(f) {
			code := cast.Print(li.Loop)
			text := NewUnit(code)
			aloneAnalyses(t, code, text)
			for i, v := range c.CompileUnit(text) {
				sameVerdict(t, code, v, c.Members[i])
			}
			text.Release()
			printed++
		}
		// Each member's result rendered over one shared unit is its
		// independent Compile(src), and appending to one member's reasons
		// shows in no other's.
		shared := newUnit(src)
		rs := make([]Result, len(c.Members))
		for i, m := range c.Members {
			res, err := render(m, shared)
			want, wantErr := m.Compile(src)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) || !reflect.DeepEqual(res, want) {
				t.Errorf("%s on %q:\nshared      %+v %v\nindependent %+v %v", m.Name(), src, res, err, want, wantErr)
			}
			rs[i] = res
		}
		shared.Release()
		before := make([][]string, len(rs))
		for i, r := range rs {
			before[i] = append([]string(nil), r.Reasons...)
		}
		for i := range rs {
			rs[i].Reasons = append(rs[i].Reasons, "mutated by "+c.Members[i].Name())
		}
		for i, r := range rs {
			name := c.Members[i].Name()
			if got := r.Reasons[:len(before[i])]; !reflect.DeepEqual(append([]string(nil), got...), before[i]) {
				t.Errorf("%s reasons changed under another member's append: %v, had %v", name, got, before[i])
			}
			if n := len(r.Reasons); n != len(before[i])+1 || r.Reasons[n-1] != "mutated by "+name {
				t.Errorf("%s reasons %v after its own append", name, r.Reasons)
			}
		}
	}

	if printed < 100 {
		t.Fatalf("only %d canonical prints went through a unit", printed)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range srcs {
				src := srcs[(k+g*7)%len(srcs)]
				for i, v := range c.CompileEach(src) {
					sameVerdict(t, src, v, c.Members[i])
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestUnitFrontEnd holds a unit's front end to clex: the tokens it hands out
// are clex.Append's of the text as given, the tokens its members check are
// clex.Append's of the stripped text, and when the lex fails, every member's
// error text carries clex's. A unit of a text without a pragma parses once,
// and one with a pragma at most twice, however often it is compiled. Every
// CompileUnit verdict is the member's own Compile(src) verdict, a second
// CompileUnit answers as the first did, and eight goroutines trade units and
// parsers through the pools.
func TestUnitFrontEnd(t *testing.T) {
	c := NewComPar()
	srcs := equivalenceInputs(t)
	for _, src := range srcs {
		parses := cparse.Parses()
		u := NewUnit(src)
		first, second := c.CompileUnit(u), c.CompileUnit(u)
		given, toks := slices.Clone(u.Tokens()), slices.Clone(u.stripped().Tokens())
		u.Release()
		got, limit := cparse.Parses()-parses, int64(1)
		if stripPragmas(src) != src {
			limit = 2
		}
		if got > limit {
			t.Errorf("%q: the unit parsed %d times, want at most %d", src, got, limit)
		}
		if want, _ := clex.Append(nil, src); !slices.Equal(given, want) {
			t.Errorf("%q: the unit's tokens are not clex.Append's", src)
		}
		want, lexErr := clex.Append(nil, stripPragmas(src))
		if !slices.Equal(toks, want) {
			t.Errorf("%q: the members' tokens are not clex.Append's", src)
		}
		for i := range first {
			if lexErr != nil && !strings.Contains(first[i].Detail, lexErr.Error()) {
				t.Errorf("%q: %s reads %q, want clex's %q", src, first[i].Compiler, first[i].Detail, lexErr)
			}
			sameVerdict(t, src, first[i], c.Members[i])
			sameVerdict(t, src, second[i], c.Members[i])
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range srcs {
				src := srcs[(k+g*5)%len(srcs)]
				u := NewUnit(src)
				for round := 0; round < 2; round++ {
					for i, v := range c.CompileUnit(u) {
						sameVerdict(t, src, v, c.Members[i])
					}
				}
				u.Release()
			}
		}(g)
	}
	wg.Wait()
}

// keptUnit is a text unit over a strict cparse.Parse, whose fresh slabs
// leave with the tree and are never reused: the reference a released parse
// is held to.
func keptUnit(code string) *Unit {
	u := newUnit(code)
	if f, err := cparse.Parse(code); err == nil {
		if loop, funcs := target(f); loop != nil {
			u.given, u.loop, u.funcs = true, loop, funcs
		}
	}
	return u
}

// TestUnitReleaseReuse holds a text unit whose parse went back to the
// parser pool to what it answered while the parse was live: for every
// equivalence input, its plain and converted analyses and its CompileUnit
// verdicts — taken before Release, as the advisor takes them — equal those
// of a kept-parse unit after the released slabs have served the next
// input's parse, which is still live while they are compared. Eight
// goroutines trade parsers through the pool at once (run under -race too).
func TestUnitReleaseReuse(t *testing.T) {
	c := NewComPar()
	srcs := equivalenceInputs(t)
	check := func(src, next string) {
		u := NewUnit(src)
		analyses := views(u)
		verdicts := c.CompileUnit(u)
		u.Release()

		reuse := cparse.ParseTree(next)
		defer reuse.Release()
		ref := keptUnit(src)
		if want := views(ref); !reflect.DeepEqual(analyses, want) {
			t.Errorf("%q after release:\ngot  %+v\nkept %+v", src, analyses, want)
		}
		if want := c.CompileUnit(ref); !reflect.DeepEqual(verdicts, want) {
			t.Errorf("%q after release:\ngot  %+v\nkept %+v", src, verdicts, want)
		}
	}
	for k, src := range srcs {
		check(src, srcs[(k+1)%len(srcs)])
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range srcs {
				i := (k + g*3) % len(srcs)
				check(srcs[i], srcs[(i+1)%len(srcs)])
			}
		}(g)
	}
	wg.Wait()
}

// TestCompileEachAllocs gates the saving: one shared front end allocates
// under half of what the three members allocate compiling on their own, and
// at most 6 times at all. The ceiling is what holds the count: the leaner
// the shared lex, parse and dependence analysis get, the less sharing them
// saves in proportion (119 of 310 before the analysis had a workspace, 55 of
// 118 with it), so a ratio alone would count a leaner front end as a loss.
// It read 26 while each member built a directive and a reason list it then
// flattened away and the unit was a fresh allocation; members that decide
// into their verdict and a pooled unit read 17, while the unit lexed into a
// borrowed buffer and kept a strict parse of those tokens. With its front end
// its pooled parses alone it reads 4.
func TestCompileEachAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const src = `for (i = 1; i < n - 1; i++) {
    t = 0.5 * (a[i - 1] + a[i + 1]);
    b[i] = t + c[i] * 2.0;
}
`
	c := NewComPar()
	shared := testing.AllocsPerRun(100, func() { c.CompileEach(src) })
	alone := testing.AllocsPerRun(100, func() {
		for _, m := range c.Members {
			if _, err := m.Compile(src); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("CompileEach %.0f allocs, three independent Compiles %.0f", shared, alone)
	if shared > 0.5*alone || shared > 6 {
		t.Errorf("CompileEach allocates %.0f, want under half of %.0f for three independent compiles and at most 6", shared, alone)
	}
}

// TestStripPragmasNoCopy pins the fast path: a snippet without a pragma
// comes back as the same string, not a split-and-joined copy.
func TestStripPragmasNoCopy(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { stripPragmas("for (i = 0; i < n; i++)\n    a[i] = 0;\n") }); n != 0 {
		t.Errorf("stripPragmas allocates %.0f times on a snippet with no pragma", n)
	}
	if got := stripPragmas("  #pragma omp parallel for\nfor (;;) ;"); got != "for (;;) ;" {
		t.Errorf("stripPragmas = %q", got)
	}
}
