package clex

import (
	"strings"
	"testing"
	"testing/quick"
)

func kinds(toks []Token) []Kind {
	ks := make([]Kind, len(toks))
	for i, t := range toks {
		ks[i] = t.Kind
	}
	return ks
}

func texts(toks []Token) []string {
	ts := make([]string, 0, len(toks))
	for _, t := range toks {
		if t.Kind != EOF {
			ts = append(ts, t.Text)
		}
	}
	return ts
}

func mustLex(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := Append(nil, src)
	if err != nil {
		t.Fatalf("Append(nil, %q): %v", src, err)
	}
	return toks
}

func TestSimpleForLoop(t *testing.T) {
	toks := mustLex(t, "for (i = 0; i < n; i++) a[i] = i;")
	want := []string{"for", "(", "i", "=", "0", ";", "i", "<", "n", ";", "i", "++", ")", "a", "[", "i", "]", "=", "i", ";"}
	got := texts(toks)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d: got %q want %q", i, got[i], want[i])
		}
	}
}

func TestKeywordVsIdent(t *testing.T) {
	toks := mustLex(t, "int fortune = forx + for_;")
	if toks[0].Kind != Keyword || toks[0].Text != "int" {
		t.Errorf("expected keyword int, got %v", toks[0])
	}
	for _, tok := range toks[1:] {
		if tok.Kind == Keyword && tok.Text != "int" {
			t.Errorf("identifier %q misclassified as keyword", tok.Text)
		}
	}
}

func TestAllKeywordsRecognized(t *testing.T) {
	for kw := range keywords {
		toks := mustLex(t, kw)
		if toks[0].Kind != Keyword {
			t.Errorf("%q: kind = %v, want Keyword", kw, toks[0].Kind)
		}
	}
}

func TestPragmaToken(t *testing.T) {
	src := "#pragma omp parallel for private(i)\nfor (i = 0; i < n; i++) a[i] = 0;"
	toks := mustLex(t, src)
	if toks[0].Kind != Pragma {
		t.Fatalf("first token kind = %v, want Pragma", toks[0].Kind)
	}
	if toks[0].Text != "pragma omp parallel for private(i)" {
		t.Errorf("pragma text = %q", toks[0].Text)
	}
	if toks[1].Text != "for" || toks[1].Kind != Keyword {
		t.Errorf("token after pragma = %v, want for keyword", toks[1])
	}
}

func TestPragmaLineContinuation(t *testing.T) {
	src := "#pragma omp parallel for \\\n reduction(+:sum)\nx;"
	toks := mustLex(t, src)
	if toks[0].Kind != Pragma {
		t.Fatalf("kind = %v, want Pragma", toks[0].Kind)
	}
	if !strings.Contains(toks[0].Text, "reduction(+:sum)") {
		t.Errorf("continuation lost: %q", toks[0].Text)
	}
}

func TestOtherPreprocessorSkipped(t *testing.T) {
	src := "#include <stdio.h>\n#define N 100\nint x;"
	toks := mustLex(t, src)
	got := texts(toks)
	want := []string{"int", "x", ";"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestComments(t *testing.T) {
	src := "int a; // line comment\n/* block\ncomment */ int b;"
	toks := mustLex(t, src)
	got := texts(toks)
	want := []string{"int", "a", ";", "int", "b", ";"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestUnterminatedBlockComment(t *testing.T) {
	if _, err := Append(nil, "int a; /* oops"); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestNumberForms(t *testing.T) {
	cases := []struct {
		src  string
		kind Kind
	}{
		{"42", IntLit},
		{"0x1F", IntLit},
		{"0", IntLit},
		{"100UL", IntLit},
		{"3.14", FloatLit},
		{"1e10", FloatLit},
		{"2.5e-3", FloatLit},
		{"1.0f", FloatLit},
		{".5", FloatLit},
		{"7L", IntLit},
	}
	for _, c := range cases {
		toks := mustLex(t, c.src)
		if toks[0].Kind != c.kind || toks[0].Text != c.src {
			t.Errorf("%q: got %v, want kind %v", c.src, toks[0], c.kind)
		}
	}
}

func TestCharAndStringLiterals(t *testing.T) {
	toks := mustLex(t, `printf("%0.2lf \n", x[i]); c = 'a'; d = '\n';`)
	var str, chr int
	for _, tok := range toks {
		switch tok.Kind {
		case StringLit:
			str++
		case CharLit:
			chr++
		}
	}
	if str != 1 || chr != 2 {
		t.Errorf("got %d strings %d chars, want 1 and 2", str, chr)
	}
}

func TestUnterminatedString(t *testing.T) {
	if _, err := Append(nil, `"abc`); err == nil {
		t.Fatal("expected error")
	}
}

func TestUnterminatedChar(t *testing.T) {
	if _, err := Append(nil, `'a`); err == nil {
		t.Fatal("expected error")
	}
}

func TestMultiCharOperators(t *testing.T) {
	src := "a <<= 2; b >>= 1; p->x; i++; j--; a += b; x && y || z; m != n; q <= r; s >= t; u == v;"
	toks := mustLex(t, src)
	wantOps := map[string]bool{"<<=": false, ">>=": false, "->": false, "++": false, "--": false,
		"+=": false, "&&": false, "||": false, "!=": false, "<=": false, ">=": false, "==": false}
	for _, tok := range toks {
		if tok.Kind == Punct {
			if _, ok := wantOps[tok.Text]; ok {
				wantOps[tok.Text] = true
			}
		}
	}
	for op, seen := range wantOps {
		if !seen {
			t.Errorf("operator %q not lexed", op)
		}
	}
}

func TestMaximalMunch(t *testing.T) {
	// "a+++b" must lex as a ++ + b.
	toks := mustLex(t, "a+++b")
	got := texts(toks)
	want := []string{"a", "++", "+", "b"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestPositions(t *testing.T) {
	toks := mustLex(t, "int a;\n  b = 2;")
	// "b" is on line 2, col 3.
	for _, tok := range toks {
		if tok.Text == "b" {
			if tok.Line != 2 || tok.Col != 3 {
				t.Errorf("b at %d:%d, want 2:3", tok.Line, tok.Col)
			}
			return
		}
	}
	t.Fatal("token b not found")
}

func TestUnexpectedCharacter(t *testing.T) {
	if _, err := Append(nil, "int a = `b`;"); err == nil {
		t.Fatal("expected error for backquote")
	}
}

func TestEmptyInput(t *testing.T) {
	toks := mustLex(t, "")
	if len(toks) != 1 || toks[0].Kind != EOF {
		t.Fatalf("got %v, want single EOF", toks)
	}
}

func TestWhitespaceOnly(t *testing.T) {
	toks := mustLex(t, "  \n\t\r\n ")
	if len(toks) != 1 || toks[0].Kind != EOF {
		t.Fatalf("got %v, want single EOF", toks)
	}
}

func TestKindString(t *testing.T) {
	for k := EOF; k <= Pragma; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "Kind(") {
			t.Errorf("Kind(%d).String() = %q", int(k), s)
		}
	}
	if s := Kind(99).String(); !strings.HasPrefix(s, "Kind(") {
		t.Errorf("unknown kind string = %q", s)
	}
}

// TestLexNeverPanicsOnPrintableInput is a property test: the lexer must
// terminate with either tokens or an error on arbitrary printable input,
// and every returned token stream must end with EOF.
func TestLexNeverPanicsOnPrintableInput(t *testing.T) {
	f := func(raw []byte) bool {
		// Map to printable ASCII so most inputs are lexable.
		buf := make([]byte, len(raw))
		for i, b := range raw {
			buf[i] = ' ' + b%95
		}
		toks, err := Append(nil, string(buf))
		if err != nil {
			return true
		}
		return len(toks) > 0 && toks[len(toks)-1].Kind == EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLexIdempotentOnRoundTrip checks that re-lexing the joined token text
// of lexable identifier/number programs yields the same token texts.
func TestLexIdempotentOnRoundTrip(t *testing.T) {
	srcs := []string{
		"for (i = 0; i < n; i++) { sum += a[i] * b[i]; }",
		"if (x > 0) y = f(x); else y = -x;",
		"while (p) { p = next(p); count++; }",
	}
	for _, src := range srcs {
		toks1 := mustLex(t, src)
		joined := strings.Join(texts(toks1), " ")
		toks2 := mustLex(t, joined)
		t1, t2 := texts(toks1), texts(toks2)
		if len(t1) != len(t2) {
			t.Fatalf("%q: %d vs %d tokens", src, len(t1), len(t2))
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Errorf("%q: token %d: %q vs %q", src, i, t1[i], t2[i])
			}
		}
	}
}

func TestKindsCoverage(t *testing.T) {
	toks := mustLex(t, "#pragma omp parallel for\nfor (i=0;i<10;i++) s += 1.5;")
	seen := map[Kind]bool{}
	for _, k := range kinds(toks) {
		seen[k] = true
	}
	for _, k := range []Kind{Pragma, Keyword, Ident, IntLit, FloatLit, Punct, EOF} {
		if !seen[k] {
			t.Errorf("kind %v not produced", k)
		}
	}
}

func BenchmarkLex(b *testing.B) {
	src := strings.Repeat("for (i = 0; i < n; i++) { a[i] = b[i] * c[i] + d[i]; }\n", 50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Append(nil, src); err != nil {
			b.Fatal(err)
		}
	}
}

// operatorTable is the reference for operator lexing: every operator, longest
// first, as the lexer scanned it by prefix before it dispatched on the first
// byte.
var operatorTable = []string{
	"<<=", ">>=", "...",
	"->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
	"&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "^=", "|=",
	"+", "-", "*", "/", "%", "=", "<", ">", "!", "&", "|", "^", "~",
	"?", ":", ";", ",", ".", "(", ")", "[", "]", "{", "}",
}

// TestOperatorMunchMatchesTable checks first-byte dispatch against the table
// on every three-byte string over the operator alphabet: the first token is
// the longest table entry that prefixes the input.
func TestOperatorMunchMatchesTable(t *testing.T) {
	const alphabet = "<>.-+=!&|*/%^~?:;,()[]{} a"
	for _, a := range alphabet {
		for _, b := range alphabet {
			for _, c := range alphabet {
				src := string([]rune{a, b, c})
				var want string
				for _, op := range operatorTable {
					if strings.HasPrefix(src, op) {
						want = op
						break
					}
				}
				if want == "" || strings.HasPrefix(src, "//") || strings.HasPrefix(src, "/*") {
					continue // not an operator first, or a comment
				}
				tok, err := New(src).Next()
				if err != nil || tok.Kind != Punct || tok.Text != want {
					t.Fatalf("lexing %q: first token %v (err %v), want operator %q", src, tok, err, want)
				}
			}
		}
	}
}

// TestLexResultIsTheCallers: Append extends the caller's buffer in place,
// and reports a lexical error.
func TestLexResultIsTheCallers(t *testing.T) {
	buf := make([]Token, 0, 16)
	out, err := Append(buf, "x = 1;")
	if err != nil || len(out) != 5 || &out[0] != &buf[:1][0] {
		t.Errorf("Append did not fill the caller's buffer: %v, %v", out, err)
	}
	if _, err := Append(nil, "\"open"); err == nil {
		t.Error("Append accepted an unterminated string")
	}
}
