package cparse

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/clex"
)

func readFixture(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "scantree", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestParseAllocs gates the parser's allocation diet on a declaration-heavy
// fixture, the shape slabbed expression nodes help least: pooled token
// buffer, slabs sized from the token stream, type names stored with their
// TypeSpec. parentAllocs is the count at the commit before the diet.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	const parentAllocs = 116
	src := readFixture(t, "stencil.c")
	got := testing.AllocsPerRun(200, func() {
		if _, err := Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Parse(stencil.c): %.0f allocs (parent %d)", got, parentAllocs)
	if got > 0.40*parentAllocs {
		t.Errorf("Parse(stencil.c) allocates %.0f times, over 40 %% of the parent's %d", got, parentAllocs)
	}
}

// TestParseTokensMatchesParse: parsing a caller-lexed stream is parsing the
// text, and a stream that is not a whole Lex result is an error, not a
// panic.
func TestParseTokensMatchesParse(t *testing.T) {
	for _, name := range []string{"stencil.c", "reduce.c", "private.c", "annotated.c", "histo.c", "broken.c"} {
		src := readFixture(t, name)
		toks, err := clex.Lex(src)
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := Parse(src)
		got, gotErr := ParseTokens(toks)
		if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotErr, wantErr) {
			t.Errorf("%s: ParseTokens = (%v, %v), Parse = (%v, %v)", name, got, gotErr, want, wantErr)
		}
		if _, err := ParseTokens(toks[:len(toks)-1]); err == nil {
			t.Errorf("%s: stream without EOF parsed", name)
		}
	}
	if _, err := ParseTokens(nil); err == nil {
		t.Error("empty stream parsed")
	}
}

// TestPooledParserCarriesNothingOver: a pooled parser starts each source
// clean — a typedef from the last parse is not a type in the next.
func TestPooledParserCarriesNothingOver(t *testing.T) {
	for i := 0; i < 3; i++ {
		mustParse(t, "typedef int T;\nT x;")
		f := mustParse(t, "T * y;")
		if _, ok := f.Items[0].(*cast.ExprStmt); !ok {
			t.Fatalf("`T * y;` parsed as %T: the previous parse's typedef leaked", f.Items[0])
		}
	}
}

// TestPutPastTheBound: a slab whose bound fell short still hands out nodes.
func TestPutPastTheBound(t *testing.T) {
	slab := make([]cast.Ident, 1)
	a, b := put(&slab, cast.Ident{Name: "a"}), put(&slab, cast.Ident{Name: "b"})
	if a.Name != "a" || b.Name != "b" || a == b {
		t.Errorf("put returned %+v and %+v", a, b)
	}
}
