package dep_test

// The tests here drive the engine over the corpus generator's output, which
// imports dep — hence the external test package.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/corpus"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
)

var update = flag.Bool("update", false, "rewrite testdata/analysis_golden.txt")

// unitLoops is every for-loop of one source text (nested ones included)
// with the function bodies the text defines.
type unitLoops struct {
	loops []*cast.For
	funcs map[string]*cast.FuncDef
}

func parseUnit(tb testing.TB, src string) unitLoops {
	tb.Helper()
	file, _ := cparse.ParseRecover(src)
	u := unitLoops{funcs: map[string]*cast.FuncDef{}}
	for _, it := range file.Items {
		if fd, ok := it.(*cast.FuncDef); ok {
			u.funcs[fd.Name] = fd
		}
	}
	for _, li := range cast.ExtractLoops(file) {
		u.loops = append(u.loops, li.Loop)
	}
	return u
}

func corpusUnits(tb testing.TB, c *corpus.Corpus) []unitLoops {
	tb.Helper()
	units := make([]unitLoops, 0, len(c.Records))
	for _, r := range c.Records {
		units = append(units, parseUnit(tb, r.Code))
	}
	return units
}

func scantreeUnits(tb testing.TB) []unitLoops {
	tb.Helper()
	var paths []string
	root := filepath.Join("..", "..", "examples", "scantree")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".c") {
			paths = append(paths, path)
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	sort.Strings(paths)
	var units []unitLoops
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		units = append(units, parseUnit(tb, string(data)))
	}
	return units
}

// TestAnalysisGolden pins the engine's whole output: a digest over the JSON
// of every analysis of every loop the generators and the scan fixture hold,
// plain and converted, with and without function bodies. The digest is
// recorded at the commit before a rewrite and must not move across it.
func TestAnalysisGolden(t *testing.T) {
	var units []unitLoops
	for seed := int64(1); seed <= 3; seed++ {
		units = append(units, corpusUnits(t, corpus.Generate(corpus.Config{Seed: seed, Total: 3000}))...)
	}
	units = append(units, corpusUnits(t, corpus.GeneratePolyBench(1))...)
	units = append(units, corpusUnits(t, corpus.GenerateSPEC(1))...)
	units = append(units, scantreeUnits(t)...)

	h := sha256.New()
	count := 0
	for _, u := range units {
		for _, loop := range u.loops {
			for _, converted := range []bool{false, true} {
				for _, funcs := range []map[string]*cast.FuncDef{u.funcs, nil} {
					a := dep.AnalyzeLoop(loop, funcs)
					if converted {
						a = a.Convert()
					}
					b, err := json.Marshal(a)
					if err != nil {
						t.Fatal(err)
					}
					h.Write(b)
					h.Write([]byte{'\n'})
					count++
				}
			}
		}
	}
	got := fmt.Sprintf("%d %s\n", count, hex.EncodeToString(h.Sum(nil)))

	path := filepath.Join("testdata", "analysis_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("analysis digest moved:\n got %s want %s", got, want)
	}
}
