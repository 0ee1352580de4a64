package tokenize

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/corpus"
)

// encodeTextInputs is what the streaming encoder is held to the two-step
// path on: one snippet of every corpus template (positives and negatives),
// the scan fixture tree, snippets that carry pragma lines, and the parser
// fuzzer's hand-picked seeds.
func encodeTextInputs(tb testing.TB) []string {
	tb.Helper()
	var srcs []string
	templates := map[string]bool{}
	for _, r := range corpus.Generate(corpus.Config{Seed: 1, Total: 1500}).Records {
		if !templates[r.Template] {
			templates[r.Template] = true
			srcs = append(srcs, r.Code)
		}
	}
	if len(templates) < 30 {
		tb.Fatalf("only %d corpus templates drawn; raise Total", len(templates))
	}
	err := filepath.WalkDir(filepath.Join("..", "..", "examples", "scantree"), func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".c") {
			return err
		}
		data, err := os.ReadFile(path)
		srcs = append(srcs, string(data))
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return append(srcs,
		"",
		"for (i = 0; i < n; i++) a[i] = b[i];",
		"void f() { for (;;) {} }",
		"int x = ;",
		"#pragma omp parallel for\nfor (i = 0; i < n; i++) s += a[i];",
		"#pragma omp parallel for \\\n    private(t)\nfor (i = 1; i < n; i++) {\n    t = a[i - 1];\n    #pragma omp atomic\n    a[i] = t + 1;\n}",
		"#include <stdio.h>\n#define N 10\nfor (i = 0; i < N; i++) printf(\"%d\\n\", i);",
		"int x = {1, {2}};",
		"a->b.c[d](e, f)++;",
		"x = (ssize_t) y;",
		"do ; while (0);",
		"for (i = 0; i < n; i++) a[i] = \"unterminated;",
		"x = 'a",
		"x = y @ z;",
		"/* never closed",
	)
}

// sameEncoding holds EncodeText(nil, code, maxLen) to
// Encode(Extract(code, Text), maxLen): equal ids, or the same error. Appended
// to a dst that holds ids already, the ids follow them, and an error leaves
// dst as it was.
func sameEncoding(t *testing.T, v *Vocab, code string, maxLen int) {
	t.Helper()
	var want []int
	toks, wantErr := Extract(code, Text)
	if wantErr == nil {
		want = v.Encode(toks, maxLen)
	}
	got, err := v.EncodeText(nil, code, maxLen)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Errorf("maxLen %d on %q: streaming err %v, two-step err %v", maxLen, code, err, wantErr)
		return
	}
	if !slices.Equal(got, want) {
		t.Errorf("maxLen %d on %q:\nstreaming %v\ntwo-step  %v", maxLen, code, got, want)
	}
	prefix := []int{7, 8, 9}
	if got, _ := v.EncodeText(prefix[:2:2], code, maxLen); !slices.Equal(got, append(prefix[:2:2], want...)) {
		t.Errorf("maxLen %d on %q: appended %v, want [7 8] then %v", maxLen, code, got, want)
	}
	if prefix[2] != 9 {
		t.Errorf("maxLen %d on %q: EncodeText wrote past the dst it was given", maxLen, code)
	}
}

// encodeTextVocab knows the even-numbered inputs' tokens, so both known ids
// and [UNK] appear on every other input.
func encodeTextVocab(srcs []string) *Vocab {
	var seqs [][]string
	for i := 0; i < len(srcs); i += 2 {
		if toks, err := Extract(srcs[i], Text); err == nil {
			seqs = append(seqs, toks)
		}
	}
	return BuildVocab(seqs, 1)
}

func TestEncodeTextMatchesExtractEncode(t *testing.T) {
	srcs := encodeTextInputs(t)
	v := encodeTextVocab(srcs)
	for _, src := range srcs {
		toks, _ := Extract(src, Text)
		for _, maxLen := range []int{0, 1, 2, 110, len(toks) + 5} {
			sameEncoding(t, v, src, maxLen)
		}
	}

	// A lexical error past the last token the model reads still fails the
	// snippet, with the two-step path's message.
	long := strings.Repeat("a[i] = b[i] + 1;\n", 20) // 240 tokens
	for _, tail := range []string{"s = \"open;\n", "x = y @ z;", "c = 'q\n", "/* open"} {
		src := long + tail
		if _, err := v.EncodeText(nil, src, 110); err == nil {
			t.Errorf("lex error after token 110 not reported: %q", tail)
		}
		sameEncoding(t, v, src, 110)
	}
}

// TestEncodeTextAllocs pins the point of the streaming pass: whatever the
// snippet's length, the id slice is the one allocation, and a dst with room
// for the ids takes them without any.
func TestEncodeTextAllocs(t *testing.T) {
	src := strings.Repeat("a[i] = b[i] + 1;\n", 25) // 300 tokens
	toks, err := Extract(src, Text)
	if err != nil || len(toks) != 300 {
		t.Fatalf("fixture: %d tokens, err %v", len(toks), err)
	}
	v := BuildVocab([][]string{toks}, 1)
	for _, maxLen := range []int{110, 400} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := v.EncodeText(nil, src, maxLen); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Errorf("maxLen %d: %.1f allocations per EncodeText, want exactly 1", maxLen, allocs)
		}
		dst := make([]int, 0, 2*len(src))
		allocs = testing.AllocsPerRun(100, func() {
			if _, err := v.EncodeText(dst[:5], src, maxLen); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("maxLen %d: %.1f allocations per EncodeText into a dst with room, want 0", maxLen, allocs)
		}
	}
}

func FuzzEncodeText(f *testing.F) {
	srcs := encodeTextInputs(f)
	v := encodeTextVocab(srcs)
	for _, src := range srcs {
		f.Add(src, 110)
	}
	f.Fuzz(func(t *testing.T, src string, maxLen int) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		sameEncoding(t, v, src, maxLen%512)
	})
}

func BenchmarkEncodeText(b *testing.B) {
	src := strings.Repeat("for (i = 0; i < n; i++) { a[i] = b[i] * c[i]; }\n", 10)
	toks, _ := Extract(src, Text)
	v := BuildVocab([][]string{toks}, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := v.EncodeText(nil, src, 110); err != nil {
			b.Fatal(err)
		}
	}
}
