package cast_test

import (
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/corpus"
	"pragformer/internal/cparse"
)

// TestAppendPrintMatchesPrint: AppendPrint extends a non-empty prefix by
// exactly Print's rendering, for every loop of every corpus template. The
// prefix ends in newlines, so a fold of the rendering's trailing newlines
// that reached into dst would show.
func TestAppendPrintMatchesPrint(t *testing.T) {
	const prefix = "/* earlier loops */\n\n"
	templates := map[string]bool{}
	loops := 0
	for _, r := range corpus.Generate(corpus.Config{Seed: 1, Total: 1500}).Records {
		if templates[r.Template] {
			continue
		}
		templates[r.Template] = true
		f, err := cparse.Parse(r.Code)
		if err != nil {
			t.Fatalf("%s: %v", r.Template, err)
		}
		for _, li := range cast.ExtractLoops(f) {
			loops++
			got := string(cast.AppendPrint([]byte(prefix), li.Loop))
			if want := prefix + cast.Print(li.Loop); got != want {
				t.Errorf("%s: AppendPrint\n%q\nwant\n%q", r.Template, got, want)
			}
		}
	}
	if len(templates) < 30 || loops < len(templates) {
		t.Fatalf("%d templates with %d loops drawn; raise Total", len(templates), loops)
	}
	// An empty rendering still folds to one newline, after the prefix.
	if got, want := string(cast.AppendPrint([]byte(prefix), &cast.File{})), prefix+cast.Print(&cast.File{}); got != want {
		t.Errorf("empty file: AppendPrint %q, want %q", got, want)
	}
}
