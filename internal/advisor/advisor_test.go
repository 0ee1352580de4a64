package advisor

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/cast"
	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/cparse"
	"pragformer/internal/dataset"
	"pragformer/internal/dep"
	"pragformer/internal/lime"
	"pragformer/internal/pragma"
	"pragformer/internal/s2s"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// trainDirective fits one small directive classifier over a corpus.
func trainDirective(t *testing.T, c *corpus.Corpus, v *tokenize.Vocab) *core.PragFormer {
	t.Helper()
	split := dataset.Directive(c, dataset.Options{Seed: 1})
	encode := func(ins []dataset.Instance) []train.Example {
		out := make([]train.Example, len(ins))
		for i, in := range ins {
			toks, err := tokenize.Extract(in.Rec.Code, tokenize.Text)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = train.Example{IDs: v.Encode(toks, 64), Label: in.Label}
		}
		return out
	}
	m, err := core.New(core.Config{Vocab: v.Size(), MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	train.Fit(m, encode(split.Train), encode(split.Valid), train.Config{
		Epochs: 4, BatchSize: 16, LR: 1.5e-3, ClipNorm: 1,
	})
	return m
}

// sharedModels trains the directive classifier once for the package.
var sharedModels *Models

func models(t *testing.T) *Models {
	t.Helper()
	if testing.Short() {
		t.Skip("advisor models are slow to train")
	}
	if sharedModels != nil {
		return sharedModels
	}
	c := corpus.Generate(corpus.Config{Seed: 6, Total: 800})
	split := dataset.Directive(c, dataset.Options{Seed: 1})
	var seqs [][]string
	for _, in := range split.Train {
		toks, err := tokenize.Extract(in.Rec.Code, tokenize.Text)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, toks)
	}
	v := tokenize.BuildVocab(seqs, 1)
	sharedModels = &Models{Directive: trainDirective(t, c, v), Vocab: v}
	return sharedModels
}

func TestSuggestReduction(t *testing.T) {
	m := models(t)
	s, err := m.Suggest("for (i = 0; i < n; i++) sum += a[i] * b[i];")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Parallelize {
		t.Fatalf("reduction loop not parallelized (p=%.2f, tier %v)", s.Probability, s.Tier())
	}
	if s.Directive == nil || !s.Directive.HasReduction() {
		t.Errorf("directive = %v, want reduction clause", s.Directive)
	}
	if s.Corroboration.Tier < TierAnalysisAgrees {
		t.Errorf("tier = %v, analysis should agree", s.Corroboration.Tier)
	}
	if !s.Corroboration.DepRan || !s.Corroboration.DepAgrees {
		t.Errorf("corroboration = %+v, want dep ran and agreed", s.Corroboration)
	}
}

func TestSuggestPrivate(t *testing.T) {
	m := models(t)
	src := "for (i = 0; i < n; i++) for (j = 0; j < n; j++) x[i] = x[i] + A[i][j] * y[j];"
	s, err := m.Suggest(src)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Parallelize {
		t.Fatalf("matvec not parallelized (p=%.2f)", s.Probability)
	}
	if s.Directive == nil || !s.Directive.HasPrivate() {
		t.Errorf("directive = %v, want private(j)", s.Directive)
	}
	annotated := s.Annotate(src)
	if !strings.HasPrefix(annotated, "#pragma omp parallel for") {
		t.Errorf("annotated = %q", annotated)
	}
}

func TestSuggestSerialLoop(t *testing.T) {
	m := models(t)
	s, err := m.Suggest("for (i = 1; i < n; i++) a[i] = a[i-1] + 1;")
	if err != nil {
		t.Fatal(err)
	}
	if s.Parallelize {
		t.Fatalf("recurrence parallelized (p=%.2f)", s.Probability)
	}
	if s.Directive != nil {
		t.Error("directive on serial loop")
	}
	if got := s.Annotate("x"); got != "x" {
		t.Errorf("Annotate changed serial code: %q", got)
	}
}

func TestSuggestIOLoop(t *testing.T) {
	m := models(t)
	s, err := m.Suggest(`for (i = 0; i < n; i++) printf("%d", a[i]);`)
	if err != nil {
		t.Fatal(err)
	}
	if s.Parallelize {
		t.Fatalf("I/O loop parallelized (p=%.2f)", s.Probability)
	}
}

func TestSuggestErrors(t *testing.T) {
	var empty Models
	if _, err := empty.Suggest("for (i = 0; i < n; i++) a[i] = 0;"); err == nil {
		t.Fatal("expected error without models")
	}
	m := models(t)
	if _, err := m.Suggest("for (i = 0; i < `n`"); err == nil {
		t.Fatal("expected error on unlexable input")
	}
}

// TestSuggestBatchMatchesSuggest asserts that batching changes nothing: a
// mixed batch (positives, negatives, an unlexable snippet) must reproduce
// the per-snippet Suggest results exactly.
func TestSuggestBatchMatchesSuggest(t *testing.T) {
	m := models(t)
	codes := []string{
		"for (i = 0; i < n; i++) sum += a[i] * b[i];",
		"for (i = 1; i < n; i++) a[i] = a[i-1] + 1;",
		"for (i = 0; i < `n`", // unlexable
		"for (i = 0; i < n; i++) for (j = 0; j < n; j++) x[i] = x[i] + A[i][j] * y[j];",
		`for (i = 0; i < n; i++) printf("%d", a[i]);`,
	}
	items, err := m.SuggestBatch(codes)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(codes) {
		t.Fatalf("got %d items for %d codes", len(items), len(codes))
	}
	for i, code := range codes {
		want, wantErr := m.Suggest(code)
		got, gotErr := items[i].Suggestion, items[i].Err
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("snippet %d: err %v vs single %v", i, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		if got.Parallelize != want.Parallelize || got.Probability != want.Probability ||
			got.Corroboration.Tier != want.Corroboration.Tier {
			t.Errorf("snippet %d: batch %+v != single %+v", i, got, want)
		}
		if strings.Join(got.Corroboration.DepWitness, "|") != strings.Join(want.Corroboration.DepWitness, "|") {
			t.Errorf("snippet %d: witness %v != %v", i, got.Corroboration.DepWitness, want.Corroboration.DepWitness)
		}
		if len(got.Attributions) != len(want.Attributions) {
			t.Errorf("snippet %d: %d attributions != %d", i, len(got.Attributions), len(want.Attributions))
		}
		if (got.Directive == nil) != (want.Directive == nil) {
			t.Errorf("snippet %d: directive presence mismatch", i)
		} else if got.Directive != nil && got.Directive.String() != want.Directive.String() {
			t.Errorf("snippet %d: directive %q != %q", i, got.Directive, want.Directive)
		}
	}
}

// TestSuggestBatchEmpty covers the degenerate batch.
func TestSuggestBatchEmpty(t *testing.T) {
	m := models(t)
	items, err := m.SuggestBatch(nil)
	if err != nil || len(items) != 0 {
		t.Fatalf("SuggestBatch(nil) = %v, %v", items, err)
	}
}

func TestTierString(t *testing.T) {
	names := map[string]bool{}
	for _, tier := range []Tier{TierDisagree, TierModelOnly, TierAnalysisAgrees, TierCorroborated} {
		name := tier.String()
		if name == "" {
			t.Errorf("tier %d has no name", tier)
		}
		if names[name] {
			t.Errorf("tier name %q collides", name)
		}
		names[name] = true
	}
	if TierDisagree.String() != "disagree" {
		t.Errorf("TierDisagree = %q, the scan layer matches on \"disagree\"", TierDisagree)
	}
}

func TestAnalyzeHelper(t *testing.T) {
	analyze := func(code string) dep.Analysis {
		u := s2s.NewUnit(code)
		defer u.Release()
		return u.Analysis()
	}
	if analyze("not c code {{{").Header.OK {
		t.Error("analyze should have no header on parse failure")
	}
	if analyze("x = 1;").Header.OK {
		t.Error("analyze should have no header without a loop")
	}
	a := analyze("for (i = 0; i < n; i++) a[i] = 0;")
	if !a.Header.OK || !a.Parallelizable {
		t.Error("simple loop should analyze parallelizable")
	}
}

// yesBackend is a stub directive classifier that likes every loop — it
// lets the corroboration tests force a model-positive verdict without
// training anything.
type yesBackend struct{}

func (yesBackend) BackendName() string { return "stub" }
func (yesBackend) VocabSize() int      { return 1 << 20 }
func (yesBackend) MaxSeqLen() int      { return 64 }
func (yesBackend) PredictBatch(idsBatch [][]int) []float64 {
	out := make([]float64, len(idsBatch))
	for i := range out {
		out[i] = 0.9
	}
	return out
}

// yesCompiler is a stub S2S compiler that parallelizes everything.
type yesCompiler struct{}

func (yesCompiler) Name() string { return "yes" }
func (yesCompiler) Compile(string) (s2s.Result, error) {
	return s2s.Result{Directive: &pragma.Directive{ParallelFor: true}}, nil
}

// stubModels wires the yes-to-everything classifier with a real vocabulary
// so the pipeline's tokenize/encode path runs for real.
func stubModels(t *testing.T, comp s2s.Compiler) *Models {
	t.Helper()
	toks, err := tokenize.Extract("for (i = 1; i < n; i++) s[i] += s[i-1] * a[i];", tokenize.Text)
	if err != nil {
		t.Fatal(err)
	}
	return &Models{Directive: yesBackend{}, Vocab: tokenize.BuildVocab([][]string{toks}, 1), compar: comp}
}

// TestDisagreementIsTerminal is the confidence-ladder regression: before
// the tiered Corroboration, a successful ComPar compile unconditionally
// overwrote the grade with ComParAgrees, erasing "the dependence analysis
// found a loop-carried dependence". A carried-dep snippet with a compiler
// that happily parallelizes must stay at TierDisagree.
func TestDisagreementIsTerminal(t *testing.T) {
	m := stubModels(t, yesCompiler{})
	s, err := m.Suggest("for (i = 1; i < n; i++) s[i] += s[i-1];")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Parallelize {
		t.Fatal("stub classifier should parallelize")
	}
	cor := s.Corroboration
	if cor.Tier != TierDisagree {
		t.Fatalf("tier = %v, want %v: an S2S compile must not upgrade a dependence disagreement", cor.Tier, TierDisagree)
	}
	if !cor.DepRan || cor.DepAgrees {
		t.Errorf("corroboration = %+v, want dep ran and disagreed", cor)
	}
	witness := strings.Join(cor.DepWitness, "\n")
	if !strings.Contains(witness, "dependence") {
		t.Errorf("witness %q does not name the carried dependence", witness)
	}
	// The S2S verdict is still recorded as evidence — it just cannot
	// outvote the analysis.
	if len(cor.S2S) != 1 || !cor.S2S[0].Parallelized {
		t.Errorf("S2S evidence = %+v, want the yes-compiler verdict recorded", cor.S2S)
	}
	if len(s.Attributions) == 0 {
		t.Fatal("disagreement carries no LIME attribution")
	}
	for i, a := range s.Attributions {
		if a.Index != i {
			t.Fatalf("attributions out of token order at %d: %+v", i, a)
		}
	}
}

// TestExplainCapIsTheClassifiers: a disagreement's attributions cover what
// the classifier reads — its own input budget — and not a default cap a
// bundle might carry beside it. A 64-position classifier explains at most
// 64 tokens of a longer loop.
func TestExplainCapIsTheClassifiers(t *testing.T) {
	code := longRefutedLoop()
	toks, err := tokenize.Extract(code, tokenize.Text)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) < core.DefaultMaxLen {
		t.Fatalf("loop has %d tokens, want at least %d", len(toks), core.DefaultMaxLen)
	}
	m := &Models{Directive: yesBackend{}, Vocab: tokenize.BuildVocab([][]string{toks}, 1)}
	limit := m.Directive.MaxSeqLen()
	if got := m.EffectiveMaxLen(); got != limit {
		t.Errorf("EffectiveMaxLen() = %d, want the classifier's %d", got, limit)
	}
	s, err := m.Suggest(code)
	if err != nil {
		t.Fatal(err)
	}
	if s.Tier() != TierDisagree {
		t.Fatalf("tier = %v, want %v", s.Tier(), TierDisagree)
	}
	if n := len(s.Attributions); n == 0 || n > limit {
		t.Errorf("%d attributions for a %d-position classifier", n, limit)
	}
}

// longRefutedLoop is a loop with a carried dependence and more tokens than
// a 64-position classifier reads.
func longRefutedLoop() string {
	code := "for (i = 1; i < n; i++) {"
	for k := 0; k < 12; k++ {
		code += " s[i] += s[i-1] * w[i];"
	}
	return code + " }"
}

// TestExplainReadsWhatTheModelReads: a disagreement's attribution tokens, in
// index order, are the text's tokens the classifier reads — Extract's, its
// pragmas dropped, cut at the classifier's input budget — for a refuted loop
// with a pragma inside its body and for one longer than the budget, which is
// explained at exactly the budget. The pragma loop's attributions are pinned
// to the values LIME gave while it took its tokens from Extract.
func TestExplainReadsWhatTheModelReads(t *testing.T) {
	for _, c := range []struct {
		name, code, digest string
		models             func(*testing.T) *Models
	}{
		{"long", longRefutedLoop(), "", func(t *testing.T) *Models { return stubModels(t, nil) }},
		{"pragma", "for (i = 1; i < n; i++)\n{\n#pragma omp critical\n    s[i] += s[i - 1];\n}\n", "27 3f4da4fc42e6158d", models},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := c.models(t)
			s, err := m.Suggest(c.code)
			if err != nil {
				t.Fatal(err)
			}
			if s.Tier() != TierDisagree {
				t.Fatalf("tier = %v, want %v", s.Tier(), TierDisagree)
			}
			want, err := tokenize.Extract(c.code, tokenize.Text)
			if err != nil {
				t.Fatal(err)
			}
			want = want[:min(len(want), m.EffectiveMaxLen())]
			got := make([]string, len(s.Attributions))
			for i, a := range s.Attributions {
				if a.Index != i {
					t.Fatalf("attribution %d has index %d", i, a.Index)
				}
				got[i] = a.Token
			}
			if !slices.Equal(got, want) {
				t.Errorf("LIME explained %d tokens %q, want the %d the classifier reads %q", len(got), got, len(want), want)
			}
			if c.digest == "" {
				return
			}
			h := sha256.New()
			for _, a := range s.Attributions {
				fmt.Fprintf(h, "%d %q %x\n", a.Index, a.Token, math.Float64bits(a.Weight))
			}
			if d := fmt.Sprintf("%d %x", len(s.Attributions), h.Sum(nil)[:8]); d != c.digest {
				t.Errorf("attributions moved: %s, want %s", d, c.digest)
			}
		})
	}
}

// TestTierLadder covers the remaining grades: analysis agreement upgrades
// to TierCorroborated only through an S2S parallelization, and a snippet
// the analysis cannot run on stays TierModelOnly even when S2S compiles.
func TestTierLadder(t *testing.T) {
	agreeing := "for (i = 0; i < n; i++) s[i] += a[i];"
	m := stubModels(t, yesCompiler{})
	s, err := m.Suggest(agreeing)
	if err != nil {
		t.Fatal(err)
	}
	if s.Corroboration.Tier != TierCorroborated {
		t.Errorf("tier = %v, want %v (analysis + S2S agree)", s.Corroboration.Tier, TierCorroborated)
	}
	if len(s.Attributions) != 0 {
		t.Errorf("agreeing verdict has attributions %v (LIME is disagreement-only)", s.Attributions)
	}

	m = stubModels(t, nil) // nil wires the real ComPar trio
	if s, err = m.Suggest(agreeing); err != nil {
		t.Fatal(err)
	}
	if s.Corroboration.Tier != TierCorroborated {
		t.Errorf("tier = %v, want %v under the real ComPar trio", s.Corroboration.Tier, TierCorroborated)
	}
	if len(s.Corroboration.S2S) != 3 {
		t.Errorf("S2S evidence = %+v, want one verdict per ComPar member", s.Corroboration.S2S)
	}

	// No analyzable loop: dep cannot run, and S2S parse failures must not
	// invent agreement.
	if s, err = m.Suggest("x = y + 1;"); err != nil {
		t.Fatal(err)
	}
	if s.Corroboration.Tier != TierModelOnly || s.Corroboration.DepRan {
		t.Errorf("corroboration = %+v, want model-only with DepRan false", s.Corroboration)
	}
}

// TestDirectiveIsTheAnalysis: a positive the dependence analysis agrees
// with is emitted as exactly the directive that analysis supports — every
// private and reduction clause its parallel verdict depends on, nothing
// added and nothing dropped. The classifier says yes to every loop: the
// corpus at two seeds, the scan fixture tree, and two loops whose bare
// `parallel for` would be a data race.
func TestDirectiveIsTheAnalysis(t *testing.T) {
	codes := []string{
		"for (i = 0; i < n; i++) { t = a[i] * 2; b[i] = t + 1; }", // needs private(t)
		"for (i = 0; i < n; i++) s += a[i];",                      // needs reduction(+:s)
	}
	for _, seed := range []int64{1, 2} {
		for _, r := range corpus.Generate(corpus.Config{Seed: seed}).Records {
			codes = append(codes, r.Code)
		}
	}
	err := filepath.WalkDir(filepath.Join("..", "..", "examples", "scantree"), func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".c" {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		f, err := cparse.Parse(string(src))
		if err != nil {
			return nil // broken.c: the scan skips it too
		}
		for _, li := range cast.ExtractLoops(f) {
			codes = append(codes, cast.Print(li.Loop))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	m := stubModels(t, nil) // nil wires the real ComPar trio
	m.NoExplain = true
	agreeing, failing := 0, 0
	for lo := 0; lo < len(codes); lo += 256 {
		chunk := codes[lo:min(lo+256, len(codes))]
		items, err := m.SuggestBatch(chunk)
		if err != nil {
			t.Fatal(err)
		}
		for i, it := range items {
			if it.Err != nil {
				t.Fatalf("%q: %v", chunk[i], it.Err)
			}
			if it.Suggestion.Tier() < TierAnalysisAgrees {
				if lo+i < 2 {
					t.Fatalf("%q: tier %v, want an agreeing verdict", chunk[i], it.Suggestion.Tier())
				}
				continue
			}
			agreeing++
			unit := s2s.NewUnit(chunk[i])
			analysis := unit.Analysis()
			unit.Release()
			want := analysis.Directive().String()
			if got := it.Suggestion.Directive.String(); got != want {
				if failing++; failing <= 10 {
					t.Errorf("%q: emitted %q, the analysis supports %q", chunk[i], got, want)
				}
			}
		}
	}
	if failing > 0 {
		t.Errorf("%d of %d agreeing verdicts are not the analysis' directive", failing, agreeing)
	}
	t.Logf("%d loops, %d agreeing", len(codes), agreeing)
}

// TestEvidenceIsTheAnalysis: a verdict's dependence evidence is the
// analysis' own slices, shared, not copied, and the S2S members run over the
// same unit after it is attached. Every verdict must still carry exactly
// what a fresh analysis of its loop says, so a member that wrote into the
// evidence it shares fails here. The classifier says yes to every loop, so
// every member runs: the corpus at one seed and the scan fixture tree's
// canonical prints.
func TestEvidenceIsTheAnalysis(t *testing.T) {
	codes := fixtureSnippets(t)
	for _, r := range corpus.Generate(corpus.Config{Seed: 1}).Records {
		codes = append(codes, r.Code)
	}
	m := stubModels(t, nil) // nil wires the real ComPar trio
	m.NoExplain = true
	items, err := m.SuggestBatch(codes)
	if err != nil {
		t.Fatal(err)
	}
	witnessed, converted := 0, 0
	for i, it := range items {
		if it.Err != nil {
			continue // unlexable for the stub vocabulary's tokenizer: no verdict
		}
		cor := it.Suggestion.Corroboration
		if len(cor.S2S) == 0 {
			t.Fatalf("%q: no S2S verdict, so no member ran after the evidence was attached", codes[i])
		}
		unit := s2s.NewUnit(codes[i])
		fresh := unit.Analysis()
		unit.Release()
		if !fresh.Header.OK {
			if cor.DepRan || cor.DepWitness != nil || cor.Races != nil || cor.Converted != nil {
				t.Errorf("%q: evidence %+v for a loop the analysis cannot run on", codes[i], cor)
			}
			continue
		}
		if !reflect.DeepEqual(cor.DepWitness, fresh.Reasons) || !reflect.DeepEqual(cor.Races, fresh.Witnesses) ||
			!reflect.DeepEqual(cor.Converted, fresh.Converted) {
			t.Errorf("%q: evidence\n%q %+v %q\nis not the analysis'\n%q %+v %q", codes[i],
				cor.DepWitness, cor.Races, cor.Converted, fresh.Reasons, fresh.Witnesses, fresh.Converted)
		}
		witnessed += min(len(cor.Races), 1)
		converted += min(len(cor.Converted), 1)
	}
	if witnessed == 0 || converted == 0 {
		t.Fatalf("%d verdicts with race witnesses, %d with conversions: the inputs no longer cover the evidence", witnessed, converted)
	}
	t.Logf("%d loops, %d witnessed, %d converted", len(codes), witnessed, converted)
}

// TestTextPathParseBudget pins the front-end budget of a positive loop that
// arrives as text (the serving path): one parse and one engine pass serve the
// advisor's dependence evidence and all three S2S members — the conversion
// the loop needs (h is an array reduction) is not a second pass.
func TestTextPathParseBudget(t *testing.T) {
	m := stubModels(t, nil) // nil wires the real ComPar trio
	parses, passes := cparse.Parses(), dep.Passes()
	s, err := m.Suggest("for (i = 0; i < n; i++) h[b[i]] += a[i];")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Corroboration.S2S) != 3 || len(s.Corroboration.Converted) != 1 {
		t.Fatalf("corroboration %+v, want the three members and one converted array", s.Corroboration)
	}
	for _, v := range s.Corroboration.S2S {
		if !v.Compiled {
			t.Errorf("%s did not reach the shared analysis: %s", v.Compiler, v.Detail)
		}
	}
	if got := cparse.Parses() - parses; got != 1 {
		t.Errorf("a text-path Suggest of a positive loop parsed %d times, budget 1", got)
	}
	if got := dep.Passes() - passes; got != 1 {
		t.Errorf("a text-path Suggest of a positive loop ran %d engine passes, budget 1", got)
	}
}

// TestTextPathReleasesAfterMembers: a posted snippet's parse goes back to
// the parser pool only after the S2S members have read it. Par4All walks the
// loop itself, for calls, so a parse released before the members compile
// shows in its verdict on a loop with a call: it must decline the loop, as
// its own Compile of the text does.
func TestTextPathReleasesAfterMembers(t *testing.T) {
	const code = "for (i = 0; i < n; i++) b[i] = sqrt(a[i]);"
	s, err := stubModels(t, nil).Suggest(code)
	if err != nil {
		t.Fatal(err)
	}
	members := s2s.NewComPar().Members
	if len(s.Corroboration.S2S) != len(members) {
		t.Fatalf("S2S evidence %+v, want one verdict per member", s.Corroboration.S2S)
	}
	for i, v := range s.Corroboration.S2S {
		res, err := members[i].Compile(code)
		if v.Compiled != (err == nil) || v.Parallelized != (err == nil && res.Directive != nil) {
			t.Errorf("%s: compiled %v, parallelized %v (%s); its own Compile: %+v, %v", v.Compiler, v.Compiled, v.Parallelized, v.Detail, res.Directive, err)
		}
	}
}

// TestAttributionDeterminism: attributions are seeded from the snippet
// content, so two independent Models over the same vocabulary explain a
// disagreement identically — the property the scan cache and the
// cross-entry-point parity gates rely on.
func TestAttributionDeterminism(t *testing.T) {
	code := "for (i = 1; i < n; i++) s[i] += s[i-1];"
	a := stubModels(t, yesCompiler{})
	b := stubModels(t, yesCompiler{})
	sa, err := a.Suggest(code)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.Suggest(code)
	if err != nil {
		t.Fatal(err)
	}
	if len(sa.Attributions) == 0 || len(sa.Attributions) != len(sb.Attributions) {
		t.Fatalf("attribution counts %d vs %d", len(sa.Attributions), len(sb.Attributions))
	}
	for i := range sa.Attributions {
		if sa.Attributions[i] != sb.Attributions[i] {
			t.Errorf("attribution %d differs: %+v != %+v", i, sa.Attributions[i], sb.Attributions[i])
		}
	}
	if noEx := stubModels(t, yesCompiler{}); true {
		noEx.NoExplain = true
		s, err := noEx.Suggest(code)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Attributions) != 0 {
			t.Errorf("NoExplain still produced attributions: %v", s.Attributions)
		}
	}
}

// TestVariantLabelsMatchWholeBatch: the attribution forward — tokens encoded
// once, each variant's ids gathered from its kept positions, limeChunk
// sequences per PredictBatch — labels every variant as re-encoding its
// tokens and classifying the whole perturbation set in one batch does, on
// float64 and on int8, for inputs below, at and beyond the encode cap.
func TestVariantLabelsMatchWholeBatch(t *testing.T) {
	float := models(t)
	quant, err := float.WithBackend(core.BackendInt8)
	if err != nil {
		t.Fatal(err)
	}
	long := "for (i = 0; i < n; i++) {"
	for k := 0; k < 12; k++ {
		long += " a[i] = a[i] + b[i] * c[i];"
	}
	long += " }"
	for _, code := range []string{
		"for (i = 0; i < n; i++) a[i] = 0;",
		"for (i = 1; i < n; i++) { s[i] += s[i-1]; t = t + s[i] * w[i]; }",
		long,
	} {
		toks, err := tokenize.Extract(code, tokenize.Text)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range []*Models{float, quant} {
			maxLen := m.EffectiveMaxLen()
			if code == long && len(toks) <= maxLen {
				t.Fatalf("long snippet has %d tokens, want more than maxLen %d", len(toks), maxLen)
			}
			toks := toks[:min(len(toks), maxLen)]
			ones := 0
			lime.New(limeSeed(code)).ExplainVariants(toks, func(v lime.Variants, got []float64) {
				m.variantLabels(toks, maxLen, v, got)
				whole := make([][]int, v.Len())
				for i := range whole {
					var ts []string
					for _, p := range v.Kept(i) {
						ts = append(ts, toks[p])
					}
					whole[i] = m.Vocab.Encode(ts, maxLen)
				}
				for i, p := range m.Directive.PredictBatch(whole) {
					want := 0.0
					if p > 0.5 {
						want = 1
						ones++
					}
					if got[i] != want {
						t.Errorf("%s, %d tokens: variant %d of %d labelled %v, whole-batch forward says %v (p = %v)",
							m.Directive.BackendName(), len(toks), i, v.Len(), got[i], want, p)
					}
				}
				if v.Len() <= limeChunk {
					t.Errorf("%d variants never fill a chunk of %d", v.Len(), limeChunk)
				}
			}, 0)
			t.Logf("%s, %d tokens: %d of the variants labelled 1", m.Directive.BackendName(), len(toks), ones)
		}
	}
}
