package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/tokenize"
)

// TestPredictPrintsSuggestDirective: `pragformer predict` prints the
// probability, directive and tier advisor.Models.Suggest gives for the same
// file. The classifier's output bias is pinned so that it says
// "parallelize", and the loop needs a reduction: a bare `parallel for`
// would race on it.
func TestPredictPrintsSuggestDirective(t *testing.T) {
	const loop = "for (i = 0; i < n; i++) { sum += a[i]; }"
	dir := t.TempDir()
	modelPath, vocabPath, srcPath := filepath.Join(dir, "m.gob"), filepath.Join(dir, "v.txt"), filepath.Join(dir, "loop.c")
	toks, err := tokenize.Extract(loop, tokenize.Text)
	if err != nil {
		t.Fatal(err)
	}
	v := tokenize.BuildVocab([][]string{toks}, 1)
	m, err := core.New(core.Config{Vocab: v.Size(), D: 8, Heads: 2, Layers: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.FC2.B.W.Data[0], m.FC2.B.W.Data[1] = -20, 20
	if err := m.SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := v.SaveFile(vocabPath); err != nil {
		t.Fatal(err)
	}
	if err := writeFile(srcPath, loop); err != nil {
		t.Fatal(err)
	}

	models, err := advisor.LoadModels(modelPath, vocabPath)
	if err != nil {
		t.Fatal(err)
	}
	s, err := models.Suggest(loop)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Parallelize || !strings.Contains(s.Directive.String(), "reduction(+:sum)") {
		t.Fatalf("the fixture does not exercise the analysis' clauses: %+v, directive %q", s, s.Directive)
	}

	got := stdoutOf(t, func() { cmdPredict([]string{"-model", modelPath, "-vocab", vocabPath, srcPath}) })
	want := fmt.Sprintf("p(parallelizable) = %.3f → %s [%s]\n", s.Probability, s.Directive, s.Tier())
	if got != want {
		t.Errorf("predict printed %q, want %q", got, want)
	}
}

// stdoutOf returns what fn writes to os.Stdout.
func stdoutOf(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	fn()
	w.Close()
	return <-out
}
