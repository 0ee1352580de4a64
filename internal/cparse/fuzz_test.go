package cparse

import (
	"reflect"
	"testing"

	"pragformer/internal/cast"
)

// FuzzParse checks the parser's safety net: no input may panic or hang
// either entry point, and on inputs the strict parser accepts, the
// recovering parser must agree (same items, zero recorded errors). Loops
// extracted from accepted inputs must survive a canonical print/re-parse
// round trip — the scan pipeline hashes and re-parses printed snippets, so
// a loop that prints unparseably would poison verdict dedup downstream.
// Every input is also parsed into the slabs a released tree of a seed file
// handed back, and must come out as the fresh parse did.
func FuzzParse(f *testing.F) {
	_, seeds := scantree(f)
	for _, src := range seeds {
		f.Add(src)
	}
	for _, seed := range []string{
		"for (i = 0; i < n; i++) a[i] = b[i];",
		"void f() { for (;;) {} }",
		"int x = ;",
		"#pragma omp parallel for\nfor (i = 0; i < n; i++) s += a[i];",
		"int x = {1, {2}};",
		"a->b.c[d](e, f)++;",
		"x = (ssize_t) y;",
		"do ; while (0);",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		file, err := Parse(src)
		if err == nil && file == nil {
			t.Fatal("nil AST without error")
		}
		rec, errs := ParseRecover(src)
		ParseTree(seeds[len(src)%len(seeds)]).Release()
		reused := ParseTree(src)
		if !reflect.DeepEqual(reused.File, rec) || !reflect.DeepEqual(reused.Errs, errs) {
			t.Error("a parse into reused slabs differs from a fresh parse")
		}
		reused.Release()
		if err == nil {
			if len(errs) != 0 {
				t.Errorf("Parse accepted input but ParseRecover reported %v", errs)
			}
			if len(rec.Items) != len(file.Items) {
				t.Errorf("ParseRecover found %d items, Parse found %d", len(rec.Items), len(file.Items))
			}
			for _, li := range cast.ExtractLoops(file) {
				printed := cast.Print(li.Loop)
				if _, err := Parse(printed); err != nil {
					t.Errorf("canonical print does not re-parse: %v\n%s", err, printed)
				}
			}
		}
	})
}
