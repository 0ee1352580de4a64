package scan

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
	"pragformer/internal/lime"
	"pragformer/internal/obs"
	"pragformer/internal/pragma"
	"pragformer/internal/tokenize"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureTree is the shared scan fixture: seven C files (one deliberately
// broken, one pre-annotated, one duplicating a loop from another file, one
// carrying a dependence the model still likes — the PF1003 case).
const fixtureTree = "../../examples/scantree"

// stubSuggester is a deterministic model stand-in: a loop is
// "parallelizable" iff its snippet contains a compound assignment, and a
// compound update that reads the previous element ("i - 1") is flagged as
// a model-vs-analysis disagreement with witness and attribution evidence.
// It counts calls so cache tests can assert zero model forwards.
type stubSuggester struct {
	mu     sync.Mutex
	calls  int
	items  int
	cancel context.CancelFunc // when set, invoked on first call
	fail   bool               // when set, every batch errors
}

func (s *stubSuggester) SuggestBatch(codes []string) ([]advisor.BatchItem, error) {
	s.mu.Lock()
	s.calls++
	s.items += len(codes)
	cancel := s.cancel
	s.cancel = nil
	fail := s.fail
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	if fail {
		return nil, errors.New("stub: inference unavailable")
	}
	out := make([]advisor.BatchItem, len(codes))
	for i, code := range codes {
		sg := &advisor.Suggestion{Probability: 0.25}
		if strings.Contains(code, "+=") {
			sg.Parallelize = true
			sg.Probability = 0.75
			sg.Directive = &pragma.Directive{ParallelFor: true}
			if strings.Contains(code, "i - 1") {
				sg.Corroboration = advisor.Corroboration{
					Tier: advisor.TierDisagree, DepRan: true,
					DepWitness: []string{"stub: carried dependence"},
				}
				sg.Attributions = []lime.Attribution{{Index: 0, Token: "for", Weight: 0.5}}
			} else {
				sg.Corroboration = advisor.Corroboration{
					Tier: advisor.TierAnalysisAgrees, DepRan: true, DepAgrees: true,
				}
			}
		}
		out[i] = advisor.BatchItem{Suggestion: sg}
	}
	return out, nil
}

func (s *stubSuggester) counts() (calls, items int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.calls, s.items
}

func scanFixture(t *testing.T, cfg Config, sg advisor.Suggester) *Report {
	t.Helper()
	rep, err := Dir(context.Background(), fixtureTree, cfg, sg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestScanDirGolden(t *testing.T) {
	rep := scanFixture(t, Config{Workers: 4, BatchSize: 3}, &stubSuggester{})
	got, err := rep.Stable().JSON()
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "golden_stub.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/scan -run TestScanDirGolden -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("stable report drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestScanRequiresSuggester: either entry point refuses a scan with no
// suggester before any file is read, instead of panicking at the first chunk.
func TestScanRequiresSuggester(t *testing.T) {
	if rep, err := Dir(context.Background(), fixtureTree, Config{}, nil); rep != nil || !errors.Is(err, errNoSuggester) {
		t.Errorf("Dir without a suggester: report %v, error %v", rep, err)
	}
	srcs := []Source{{Path: "a.c", Data: []byte("void f(int *a, int n) { for (int i = 0; i < n; i++) a[i] += i; }\n")}}
	if rep, err := Files(context.Background(), srcs, Config{}, nil); rep != nil || !errors.Is(err, errNoSuggester) {
		t.Errorf("Files without a suggester: report %v, error %v", rep, err)
	}
}

func TestScanCountersAndDedupe(t *testing.T) {
	rep := scanFixture(t, Config{Workers: 4}, &stubSuggester{})
	c := rep.Counters
	if c.Files != 11 || c.Skipped != 1 {
		t.Errorf("files/skipped = %d/%d, want 11/1 (partial.c parses partially, it is not skipped)", c.Files, c.Skipped)
	}
	if c.Loops != 17 || c.Unique != 16 {
		t.Errorf("loops/unique = %d/%d, want 17/16", c.Loops, c.Unique)
	}
	if c.Annotated != 1 {
		t.Errorf("annotated = %d, want 1", c.Annotated)
	}
	if c.Disagreements != 1 {
		t.Errorf("disagreements = %d, want 1 (the recur.c carried-dep loop)", c.Disagreements)
	}
	// The scale loop appears in stencil.c and nested/kernel.c; the verdict
	// must be shared across one deduped entry.
	var shared *Loop
	for i := range rep.Loops {
		if len(rep.Loops[i].Occurrences) == 2 {
			if shared != nil {
				t.Fatal("more than one deduped loop in fixture")
			}
			shared = &rep.Loops[i]
		}
	}
	if shared == nil {
		t.Fatal("duplicate scale loop was not deduped")
	}
	files := []string{shared.Occurrences[0].File, shared.Occurrences[1].File}
	if files[0] != "nested/kernel.c" || files[1] != "stencil.c" {
		t.Errorf("dedupe occurrences = %v", files)
	}
	if shared.Suggestion == nil {
		t.Error("deduped loop missing shared verdict")
	}
	// Inference ran once per advisable unique loop: 16 unique minus the
	// annotated axpy loop.
	if c.Inferred != 15 {
		t.Errorf("inferred = %d, want 15", c.Inferred)
	}
}

func TestScanSkipHasPosition(t *testing.T) {
	rep := scanFixture(t, Config{}, &stubSuggester{})
	// broken.c is skipped wholesale; partial.c contributes a positioned
	// skip for its malformed function while its healthy loop still scans.
	if len(rep.Skips) != 2 {
		t.Fatalf("skips = %+v", rep.Skips)
	}
	broken, partial := rep.Skips[0], rep.Skips[1]
	if broken.File != "broken.c" || partial.File != "partial.c" {
		t.Fatalf("skip files = %q, %q", broken.File, partial.File)
	}
	if broken.Line != 6 || broken.Col == 0 {
		t.Errorf("broken.c skip position = %d:%d, want line 6 (the malformed for-header)", broken.Line, broken.Col)
	}
	if partial.Line != 8 || partial.Col == 0 {
		t.Errorf("partial.c skip position = %d:%d, want line 8 (the missing operand)", partial.Line, partial.Col)
	}
	for _, skip := range rep.Skips {
		if skip.Reason == "" {
			t.Error("skip has no reason")
		}
	}
	scanned := false
	for _, l := range rep.Loops {
		for _, occ := range l.Occurrences {
			if occ.File == "partial.c" && occ.Function == "ok" {
				scanned = true
			}
		}
	}
	if !scanned {
		t.Error("partial.c's healthy loop was lost to the broken sibling")
	}
}

func TestScanProvenance(t *testing.T) {
	rep := scanFixture(t, Config{}, &stubSuggester{})
	byFile := map[string][]Occurrence{}
	for _, l := range rep.Loops {
		for _, occ := range l.Occurrences {
			byFile[occ.File] = append(byFile[occ.File], occ)
		}
	}
	ks := byFile["nested/kernel.c"]
	if len(ks) != 4 {
		t.Fatalf("kernel.c occurrences = %d, want 4", len(ks))
	}
	var matmulDepths []int
	for _, occ := range ks {
		if occ.Function == "matmul" {
			matmulDepths = append(matmulDepths, occ.Depth)
		}
	}
	if len(matmulDepths) != 3 {
		t.Fatalf("matmul loops = %d, want 3", len(matmulDepths))
	}
	for _, occ := range byFile["reduce.c"] {
		if occ.Function != "total" || occ.Line != 6 {
			t.Errorf("reduce.c occurrence = %+v, want function total line 6", occ)
		}
	}
	for _, occ := range byFile["annotated.c"] {
		if occ.Pragma == "" {
			t.Error("annotated.c occurrence lost its pragma")
		}
	}
}

func TestScanCacheIncremental(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "scan.cache")
	cfg := Config{Workers: 4, CachePath: cachePath, Backend: "stub"}

	cold := &stubSuggester{}
	repCold := scanFixture(t, cfg, cold)
	coldCalls, _ := cold.counts()
	if coldCalls == 0 {
		t.Fatal("cold scan never reached the suggester")
	}
	if repCold.Counters.CacheHits != 0 {
		t.Errorf("cold cache hits = %d", repCold.Counters.CacheHits)
	}

	warm := &stubSuggester{}
	repWarm := scanFixture(t, cfg, warm)
	if calls, items := warm.counts(); calls != 0 || items != 0 {
		t.Errorf("warm re-scan performed %d model calls (%d items), want 0", calls, items)
	}
	if repWarm.Counters.Inferred != 0 {
		t.Errorf("warm inferred = %d, want 0", repWarm.Counters.Inferred)
	}
	if repWarm.Counters.CacheHits != repCold.Counters.Inferred {
		t.Errorf("warm cache hits = %d, want %d", repWarm.Counters.CacheHits, repCold.Counters.Inferred)
	}

	coldJSON, _ := repCold.Stable().JSON()
	warmJSON, _ := repWarm.Stable().JSON()
	if !bytes.Equal(coldJSON, warmJSON) {
		t.Error("warm re-scan stable report differs from cold scan")
	}

	// A different backend must not replay the cache.
	other := &stubSuggester{}
	otherCfg := cfg
	otherCfg.Backend = "other"
	scanFixture(t, otherCfg, other)
	if calls, _ := other.counts(); calls == 0 {
		t.Error("backend mismatch replayed the cache")
	}
}

// TestScanCacheModelMismatch pins the cache-identity rule: verdicts cached
// under one model fingerprint must never answer a scan with another.
func TestScanCacheModelMismatch(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "scan.cache")
	cfgA := Config{CachePath: cachePath, Backend: "stub", ModelID: "model-a"}
	scanFixture(t, cfgA, &stubSuggester{})

	sameModel := &stubSuggester{}
	scanFixture(t, cfgA, sameModel)
	if calls, _ := sameModel.counts(); calls != 0 {
		t.Errorf("same model re-scan made %d model calls, want 0", calls)
	}

	cfgB := cfgA
	cfgB.ModelID = "model-b"
	otherModel := &stubSuggester{}
	rep := scanFixture(t, cfgB, otherModel)
	if calls, _ := otherModel.counts(); calls == 0 {
		t.Error("model fingerprint mismatch replayed the cache")
	}
	if rep.Counters.CacheHits != 0 {
		t.Errorf("cache hits across models = %d", rep.Counters.CacheHits)
	}
}

// TestScanAnnotatedCacheDoesNotLeak: a cache written by an
// -include-annotated scan must not put suggestions on annotated loops in
// a later scan without the flag — warm and cold reports stay identical.
func TestScanAnnotatedCacheDoesNotLeak(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "scan.cache")
	inclCfg := Config{CachePath: cachePath, Backend: "stub", IncludeAnnotated: true}
	inclRep := scanFixture(t, inclCfg, &stubSuggester{})
	if inclRep.Counters.Annotated != 0 || inclRep.Counters.Inferred != 16 {
		t.Fatalf("include-annotated counters = %+v", inclRep.Counters)
	}

	plainCfg := Config{CachePath: cachePath, Backend: "stub"}
	warm := scanFixture(t, plainCfg, &stubSuggester{})
	cold := scanFixture(t, Config{}, &stubSuggester{})
	a, _ := warm.Stable().JSON()
	b, _ := cold.Stable().JSON()
	if !bytes.Equal(a, b) {
		t.Errorf("annotated verdict leaked from include-annotated cache:\n--- warm ---\n%s\n--- cold ---\n%s", a, b)
	}
	if warm.Counters.Annotated != 1 {
		t.Errorf("annotated = %d, want 1", warm.Counters.Annotated)
	}
}

func TestScanCorruptCacheIsCold(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "scan.cache")
	if err := os.WriteFile(cachePath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	sg := &stubSuggester{}
	rep, err := Dir(context.Background(), fixtureTree, Config{CachePath: cachePath}, sg)
	if err != nil {
		t.Fatal(err)
	}
	if calls, _ := sg.counts(); calls == 0 {
		t.Error("corrupt cache should scan cold")
	}
	if rep.Counters.CacheHits != 0 {
		t.Errorf("cache hits from corrupt cache = %d", rep.Counters.CacheHits)
	}
}

func TestScanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sg := &stubSuggester{cancel: cancel}
	rep, err := Dir(ctx, fixtureTree, Config{Workers: 4, BatchSize: 1}, sg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep != nil {
		t.Error("canceled scan returned a report")
	}
}

func TestScanCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Dir(ctx, fixtureTree, Config{}, &stubSuggester{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestScanSuggesterErrorIsPerLoop(t *testing.T) {
	rep := scanFixture(t, Config{}, &stubSuggester{fail: true})
	advised := 0
	for _, l := range rep.Loops {
		if l.Annotated {
			continue
		}
		advised++
		if l.Error == "" {
			t.Errorf("loop %s missing error", l.Hash[:8])
		}
		if l.Suggestion != nil {
			t.Errorf("loop %s has suggestion despite error", l.Hash[:8])
		}
	}
	if advised == 0 {
		t.Fatal("no advised loops")
	}
}

func TestScanErroredLoopsAreNotCached(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "scan.cache")
	cfg := Config{CachePath: cachePath}
	scanFixture(t, cfg, &stubSuggester{fail: true})
	retry := &stubSuggester{}
	scanFixture(t, cfg, retry)
	if calls, _ := retry.counts(); calls == 0 {
		t.Error("errored loops were cached; retry scan never hit the model")
	}
}

func TestScanFilesInMemory(t *testing.T) {
	files := []Source{
		{Path: "a.c", Data: []byte("void f(double *x, int n) {\n    int i;\n    for (i = 0; i < n; i++) x[i] += 1.0;\n}\n")},
		{Path: "b.c", Data: []byte("int broken(\n")},
	}
	rep, err := scanFiles(context.Background(), files, Config{}, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Files != 1 || rep.Counters.Skipped != 1 || rep.Counters.Unique != 1 {
		t.Fatalf("counters = %+v", rep.Counters)
	}
	l := rep.Loops[0]
	if l.Occurrences[0].File != "a.c" || l.Occurrences[0].Line != 3 || l.Occurrences[0].Function != "f" {
		t.Errorf("occurrence = %+v", l.Occurrences[0])
	}
	if l.Suggestion == nil || !l.Suggestion.Parallelize {
		t.Errorf("suggestion = %+v", l.Suggestion)
	}
}

// TestScanMatchesDirectAdvisor ties the pipeline to the real advisor: a
// scan over the fixture tree with an (untrained) Models bundle must carry
// exactly the probabilities advisor.SuggestBatch reports for the same
// snippets.
func TestScanMatchesDirectAdvisor(t *testing.T) {
	v := tokenize.BuildVocab([][]string{{
		"for", "(", ";", ")", "{", "}", "[", "]", "=", "+", "*", "<",
		"i", "j", "k", "n", "a", "b", "c", "x", "sum", "0", "1", "2.0", "+=", "++",
	}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 16, MaxLen: 64, D: 16, Heads: 2, Layers: 1}, 11)
	if err != nil {
		t.Fatal(err)
	}
	models := &advisor.Models{Directive: m, Vocab: v}

	rep := scanFixture(t, Config{Workers: 4, BatchSize: 2}, models)
	for _, l := range rep.Loops {
		if l.Annotated {
			continue
		}
		if l.Error != "" {
			t.Fatalf("loop %s: %s", l.Hash[:8], l.Error)
		}
		items, err := models.SuggestBatch([]string{l.Snippet})
		if err != nil {
			t.Fatal(err)
		}
		want := items[0].Suggestion
		if l.Suggestion.Probability != want.Probability || l.Suggestion.Parallelize != want.Parallelize {
			t.Errorf("loop %s: scan %v/%v != direct %v/%v", l.Hash[:8],
				l.Suggestion.Parallelize, l.Suggestion.Probability, want.Parallelize, want.Probability)
		}
	}
}

// TestScanWorkersParallel exercises the pipeline with a high worker count;
// the CI -race run makes this the scanner's data-race gate.
func TestScanWorkersParallel(t *testing.T) {
	base := scanFixture(t, Config{Workers: 1}, &stubSuggester{})
	wide := scanFixture(t, Config{Workers: 8, BatchSize: 2}, &stubSuggester{})
	a, _ := base.Stable().JSON()
	b, _ := wide.Stable().JSON()
	if !bytes.Equal(a, b) {
		t.Error("report depends on worker count")
	}
}

// TestScanCacheVersionMismatch: v1 cache entries predate the tier/witness/
// attribution evidence, so replaying them would make warm scans diverge
// from cold — an old-layout cache file must be discarded, not replayed.
func TestScanCacheVersionMismatch(t *testing.T) {
	cachePath := filepath.Join(t.TempDir(), "scan.cache")
	cfg := Config{CachePath: cachePath, Backend: "stub"}
	scanFixture(t, cfg, &stubSuggester{})

	// Rewrite the valid cache as a v1 file, keeping its entries.
	data, err := os.ReadFile(cachePath)
	if err != nil {
		t.Fatal(err)
	}
	var cf map[string]any
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatal(err)
	}
	if int(cf["version"].(float64)) != cacheVersion {
		t.Fatalf("cache version = %v, want %d", cf["version"], cacheVersion)
	}
	cf["version"] = 1
	if data, err = json.Marshal(cf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cachePath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	sg := &stubSuggester{}
	rep := scanFixture(t, cfg, sg)
	if calls, _ := sg.counts(); calls == 0 {
		t.Error("v1 cache was replayed; scan should run cold")
	}
	if rep.Counters.CacheHits != 0 {
		t.Errorf("cache hits from v1 cache = %d, want 0", rep.Counters.CacheHits)
	}
}

// TestScanTracesAdvisorStages: a scan under a traced context records the
// advisor's infer and corroborate splits beside its own stages, one of
// each per advised chunk, with no hook set on the bundle.
func TestScanTracesAdvisorStages(t *testing.T) {
	v := tokenize.BuildVocab([][]string{{"for", "(", ";", ")", "i", "n", "s", "=", "+="}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 16, MaxLen: 64, D: 16, Heads: 2, Layers: 1}, 11)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("")
	rep, err := Dir(obs.WithTrace(context.Background(), tr), fixtureTree, Config{BatchSize: 2}, &advisor.Models{Directive: m, Vocab: v})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, st := range tr.Summary() {
		counts[st.Name] = st.Count
	}
	chunks := counts["advise"]
	if chunks == 0 || rep.Counters.Inferred == 0 {
		t.Fatalf("stages %v, counters %+v: the scan advised nothing", counts, rep.Counters)
	}
	for _, stage := range []string{"infer", "corroborate"} {
		if counts[stage] != chunks {
			t.Errorf("%d %s spans over %d advised chunks, want one per chunk (stages %v)", counts[stage], stage, chunks, counts)
		}
	}
}

// TestScanParsesOncePerFile is the front-end budget of a scan: one
// cparse parse per input file, one more per advised loop — its S2S unit
// parses the canonical text, as every entry point's does, and the trio
// reads that parse too — and one dependence-engine pass per advised loop,
// which serves the advisor's converted view and the trio's plain one.
func TestScanParsesOncePerFile(t *testing.T) {
	v := tokenize.BuildVocab([][]string{{"for", "(", ";", ")", "i", "n", "s", "=", "+="}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 16, MaxLen: 64, D: 16, Heads: 2, Layers: 1}, 11)
	if err != nil {
		t.Fatal(err)
	}
	models := &advisor.Models{Directive: m, Vocab: v}
	parses, passes := cparse.Parses(), dep.Passes()
	rep := scanFixture(t, Config{Workers: 4, BatchSize: 2}, models)
	parses, passes = cparse.Parses()-parses, dep.Passes()-passes
	advised, positives := 0, 0
	for _, l := range rep.Loops {
		if l.Suggestion != nil {
			advised++
			if l.Suggestion.Parallelize {
				positives++
			}
		}
	}
	if positives == 0 {
		t.Fatal("fixture scan has no positive loop; the corroboration path checks nothing")
	}
	// Every file is parsed once, including the broken one (its parse fails
	// but still counts as a call), and every advised loop once.
	if want := int64(rep.Counters.Files + rep.Counters.Skipped + advised); parses != want {
		t.Errorf("scan performed %d parses, want %d (one per file, one per advised loop)", parses, want)
	}
	if passes != int64(advised) {
		t.Errorf("scan ran %d dependence passes, want %d (one per advised loop, %d of them positive)",
			passes, advised, positives)
	}
}

// TestScanDisagreementEvidence checks the evidence flow end to end at the
// scan layer: the disagreeing loop carries tier, witness and attributions
// in the JSON report, and Stable() keeps the tokens but zeroes the weights.
func TestScanDisagreementEvidence(t *testing.T) {
	rep := scanFixture(t, Config{}, &stubSuggester{})
	var disagree *Loop
	for i := range rep.Loops {
		if s := rep.Loops[i].Suggestion; s != nil && s.Tier == "disagree" {
			if disagree != nil {
				t.Fatal("more than one disagreement in stub fixture scan")
			}
			disagree = &rep.Loops[i]
		}
	}
	if disagree == nil {
		t.Fatal("no disagreement in fixture scan")
	}
	if disagree.Occurrences[0].File != "recur.c" {
		t.Errorf("disagreement at %+v, want recur.c", disagree.Occurrences[0])
	}
	s := disagree.Suggestion
	if len(s.Witness) == 0 || len(s.Attributions) == 0 {
		t.Fatalf("disagreement missing evidence: %+v", s)
	}
	if s.Attributions[0].Weight == 0 {
		t.Error("report attributions lost their weights")
	}
	stable := rep.Stable()
	for _, l := range stable.Loops {
		if l.Suggestion == nil {
			continue
		}
		for _, a := range l.Suggestion.Attributions {
			if a.Weight != 0 {
				t.Errorf("stable report keeps attribution weight %v", a.Weight)
			}
			if a.Token == "" {
				t.Error("stable report lost attribution tokens")
			}
		}
	}
}
