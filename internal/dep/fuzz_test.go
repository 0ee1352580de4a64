package dep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/cparse"
)

// FuzzAnalyze drives the dependence engine over arbitrary parsed loops: no
// input may panic it, and the analysis must be deterministic — the engine's
// witnesses feed byte-stable scan reports, so two runs over the same loop
// must serialize identically, plain and converted.
// Between the two runs the recycled workspace serves another loop — a long
// one, a short one, one with a body-local name and one that reuses an inner
// variable with two headers, in turn — so that whatever a release leaves
// behind in a slab or a name table, or a slab that outgrew the input, would
// show in the second run.
func FuzzAnalyze(f *testing.F) {
	var between []*cast.For
	for _, src := range []string{longLoop(), "for (i = 0; i < n; i++) a[i] = 0;", bodyLocalLoop, conflictingInnerLoop} {
		file, err := cparse.Parse(src)
		if err != nil {
			f.Fatal(err)
		}
		between = append(between, cast.ExtractLoops(file)[0].Loop)
	}
	turn := 0
	dir := filepath.Join("..", "..", "examples", "scantree")
	_ = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".c") {
			return nil
		}
		if data, err := os.ReadFile(path); err == nil {
			f.Add(string(data))
		}
		return nil
	})
	f.Add("for (i = 1; i < n; i++) a[i] = a[i - 1] + 1;")
	f.Add("for (i = 0; i < n; i++) for (j = 0; j < m; j++) c[i * n + j] = 0;")
	f.Add("for (i = 0; i < n; i++) hist[b[i]] += 1;")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<16 {
			t.Skip("oversized input")
		}
		file, errs := cparse.ParseRecover(src)
		if len(errs) > 0 && len(file.Items) == 0 {
			t.Skip("nothing parseable")
		}
		funcs := map[string]*cast.FuncDef{}
		for _, it := range file.Items {
			if fd, ok := it.(*cast.FuncDef); ok {
				funcs[fd.Name] = fd
			}
		}
		analyze := func(loop *cast.For, funcs map[string]*cast.FuncDef, converted bool) *Analysis {
			a := AnalyzeLoop(loop, funcs)
			if converted {
				a = a.Convert()
			}
			return a
		}
		for _, li := range cast.ExtractLoops(file) {
			for _, converted := range []bool{false, true} {
				a := analyze(li.Loop, funcs, converted)
				analyze(between[turn%len(between)], nil, converted)
				turn++
				b := analyze(li.Loop, funcs, converted)
				ja, err := json.Marshal(a)
				if err != nil {
					t.Fatalf("analysis does not serialize: %v", err)
				}
				jb, _ := json.Marshal(b)
				if string(ja) != string(jb) {
					t.Errorf("analysis is nondeterministic (converted %v):\n%s\n%s", converted, ja, jb)
				}
			}
		}
	})
}
