package scan

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/dep"
	"pragformer/internal/lime"
	"pragformer/internal/obs"
)

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	if _, ok := s.Get("missing"); ok {
		t.Fatal("empty store reported a hit")
	}
	v := &Suggestion{Parallelize: true, Directive: "#pragma omp parallel for", Witness: []string{"w"}}
	s.Put("h1", v)
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, ok := s.Get("h1")
	if !ok || !got.Parallelize || got.Directive != v.Directive {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	// Put takes ownership: Get returns the very verdict that was put.
	if got != v {
		t.Fatal("Get returned a copy of the verdict Put stored, not the verdict")
	}
	// Nil puts are ignored.
	s.Put("h2", nil)
	if s.Len() != 1 {
		t.Fatal("nil Put changed the store")
	}
}

// NewMemStore is bounded: one verdict past the capacity evicts the least
// recently used one.
func TestMemStoreBounded(t *testing.T) {
	s := NewMemStore()
	v := &Suggestion{}
	for i := 0; i <= memStoreCap; i++ {
		s.Put(strconv.Itoa(i), v)
	}
	if s.Len() != memStoreCap {
		t.Fatalf("Len = %d after capacity+1 puts, want %d", s.Len(), memStoreCap)
	}
	if _, ok := s.Get("0"); ok {
		t.Fatal("the oldest verdict was not evicted")
	}
}

// A steady-state Put allocates nothing: the store keeps the verdict it is
// given (it cost one allocation, the clone, while it kept a private copy).
func TestMemStorePutAllocs(t *testing.T) {
	s := NewMemStore()
	v := &Suggestion{Probability: 0.25}
	h := HashSnippet("for (;;) ;")
	s.Put(h, v)
	if n := testing.AllocsPerRun(1000, func() { s.Put(h, v) }); n != 0 {
		t.Fatalf("steady-state Put allocates %v per call, want 0", n)
	}
}

// A version 3 cache file opens cold: its agreeing verdicts may lack a
// clause the analysis requires, and its entries carry the dropped notes. A
// version 4 file opens warm, and flushing it unchanged reproduces it byte
// for byte — the on-disk format did not move otherwise.
func TestFileStoreParentFormat(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "cache_v3.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "scan.cache")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	v3, err := OpenFileStore(path, "stub", "parent")
	if err != nil {
		t.Fatal(err)
	}
	if v3.Len() != 0 {
		t.Fatalf("a version 3 cache file opened with %d verdicts, want cold", v3.Len())
	}

	want, err := os.ReadFile(filepath.Join("testdata", "cache_v4.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, want, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileStore(path, "stub", "parent")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() == 0 {
		t.Fatal("the recorded cache file opened cold")
	}
	if err := fs.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flush of an unchanged cache differs from the recorded file:\n%s", got)
	}
	// The file is warm for the scan that wrote it: no model call.
	warm := &stubSuggester{}
	rep := scanFixture(t, Config{CachePath: path, Backend: "stub", ModelID: "parent"}, warm)
	if calls, _ := warm.counts(); calls != 0 || rep.Counters.CacheHits != fs.Len() {
		t.Fatalf("warm scan made %d model calls, %d cache hits, want 0 and %d", calls, rep.Counters.CacheHits, fs.Len())
	}
}

// Without a store or a cache path a scan reads through and writes back to
// nothing: a traced run records no store span and reports no cache hit.
func TestScanWithoutStoreTouchesNone(t *testing.T) {
	tr := obs.NewTrace("")
	rep, err := scanFiles(obs.WithTrace(context.Background(), tr), []Source{{Path: "a.c", Data: []byte(
		"void f(int *a, int n) { for (int i = 0; i < n; i++) a[i] += i; }\n")}}, Config{}, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Inferred != 1 || rep.Counters.CacheHits != 0 {
		t.Fatalf("counters = %+v, want 1 inferred and 0 cache hits", rep.Counters)
	}
	advised := false
	for _, st := range tr.Summary() {
		if strings.HasPrefix(st.Name, "store.") {
			t.Fatalf("a scan with no store recorded a %s span", st.Name)
		}
		advised = advised || st.Name == "advise"
	}
	if !advised {
		t.Fatal("the scan was not traced at all")
	}
}

func TestMemStoreConcurrent(t *testing.T) {
	s := NewMemStore()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h := HashSnippet(string(rune('a'+w)) + string(rune(i)))
				s.Put(h, &Suggestion{Parallelize: true})
				s.Get(h)
				s.Len()
			}
		}(w)
	}
	wg.Wait()
}

// A caller-supplied store must win over CachePath and collect the scan's
// verdicts — the router's shared-store injection point.
func TestScanConfigStoreInjection(t *testing.T) {
	store := NewMemStore()
	srcs := []Source{{Path: "a.c", Data: []byte(
		"void f(int *a, int n) { for (int i = 0; i < n; i++) a[i] = i; }\n")}}
	cfg := Config{
		Workers: 2,
		Store:   store,
		// CachePath must be ignored when Store is set: point it somewhere
		// unwritable to prove no file I/O happens.
		CachePath: filepath.Join(t.TempDir(), "no", "such", "dir", "cache.json"),
	}
	rep, err := scanFiles(context.Background(), srcs, cfg, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Loops) != 1 || rep.Loops[0].Suggestion == nil {
		t.Fatalf("scan did not produce a verdict: %+v", rep.Loops)
	}
	if store.Len() != 1 {
		t.Fatalf("store holds %d verdicts, want 1", store.Len())
	}
	if rep.Loops[0].FromCache {
		t.Fatal("cold scan claimed a cache hit")
	}

	// Second scan through the same store: pure replay, marked FromCache.
	rep2, err := scanFiles(context.Background(), srcs, cfg, adviseWith(failingSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Loops[0].FromCache {
		t.Fatal("warm scan did not read through the injected store")
	}
	if rep2.Counters.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", rep2.Counters.CacheHits)
	}
}

// failingSuggester proves the warm path never reaches inference.
type failingSuggester struct{}

func (failingSuggester) SuggestBatch([]string) ([]advisor.BatchItem, error) {
	panic("warm scan must not call the suggester")
}

// fixtureSources loads the fixture tree into memory, so a scan.Files over
// it reads no file.
func fixtureSources(t *testing.T) []Source {
	t.Helper()
	var srcs []Source
	err := filepath.WalkDir(fixtureTree, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || filepath.Ext(path) != ".c" {
			return err
		}
		data, err := os.ReadFile(path)
		srcs = append(srcs, Source{Path: path, Data: data})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return srcs
}

// TestWarmHitIsShared: a warm report carries the store's own verdicts, and
// nothing a report is put through afterwards reaches back into the store —
// Stable() zeroes its copy, finalize's strip of an annotated loop's cached
// verdict drops the report's pointer only, and concurrent warm scans with
// their encodes only ever read the shared values (the -race run is the
// check of that last part).
func TestWarmHitIsShared(t *testing.T) {
	store := NewMemStore()
	srcs := fixtureSources(t)
	// Filled with the annotated loop advised too, so the plain warm scan
	// below finds a stored verdict it has to strip.
	fill, err := scanFiles(context.Background(), srcs, Config{Store: store, IncludeAnnotated: true}, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != fill.Counters.Unique {
		t.Fatalf("store holds %d verdicts after the fill, want %d", store.Len(), fill.Counters.Unique)
	}
	warm, err := scanFiles(context.Background(), srcs, Config{Store: store}, adviseWith(failingSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	shared, weighted, stripped := 0, 0, 0
	for i := range warm.Loops {
		l := &warm.Loops[i]
		held, ok := store.Get(l.Hash)
		if !ok {
			t.Fatalf("loop %s is not in the store", l.Hash[:8])
		}
		if l.Annotated {
			stripped++
			if l.Suggestion != nil || l.FromCache {
				t.Errorf("annotated loop %s kept its cached verdict", l.Hash[:8])
			}
			continue
		}
		if l.Suggestion != held {
			t.Errorf("loop %s: the report holds a copy of the stored verdict, not the verdict", l.Hash[:8])
		}
		shared++
	}
	if shared == 0 || stripped != 1 {
		t.Fatalf("shared = %d, stripped = %d: the fixture no longer covers both cases", shared, stripped)
	}

	stable := warm.Stable()
	for i := range warm.Loops {
		held, _ := store.Get(warm.Loops[i].Hash)
		if held.Probability == 0 {
			t.Errorf("loop %s: Stable() zeroed the stored probability", warm.Loops[i].Hash[:8])
		}
		for _, a := range held.Attributions {
			if a.Weight == 0 {
				t.Errorf("loop %s: Stable() zeroed a stored attribution weight", warm.Loops[i].Hash[:8])
			}
			weighted++
		}
		if s := stable.Loops[i].Suggestion; s != nil && (s == held || s.Probability != 0) {
			t.Errorf("loop %s: the stable view is not a cleared copy", warm.Loops[i].Hash[:8])
		}
	}
	if weighted == 0 {
		t.Fatal("no stored verdict carries attributions: the fixture no longer covers the weights")
	}

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rep, err := scanFiles(context.Background(), srcs, Config{Store: store}, adviseWith(failingSuggester{}, nil))
			if err != nil {
				t.Error(err)
				return
			}
			for _, render := range []func() ([]byte, error){rep.JSON, rep.SARIF, rep.Stable().JSON} {
				if _, err := render(); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
}

// warmScanAllocBudget bounds the allocations of a warm scan.Files plus both
// encodes, per unique loop of the fixture tree. It reads 6.4 since a parse
// worker releases its file's tree before it returns, with no count of
// readers. The budget is 15 % over 7.2, the reading once SARIF wrote every
// message of a log into one string and the parser's calls, arguments,
// `if`s, string literals, members and qualifiers came from its slabs; 9.1
// before that, once a parse worker printed and hashed a file's
// loops into one snippet string and one hash string and the collector
// carved loops and occurrences from chunks; 14.1 before that, once a file's
// parse tree went back to the parser pool after its last loop; 38.2 before
// that, 47 before store hits were shared and the SARIF values typed.
// The fixture's loops sit one or two to a file and its stub verdicts are
// nearly empty, so per-file costs (parse, goroutines, channels) weigh far
// more here, and a verdict's copy far less, than on a real tree — scan_warm
// in the harness is the number of record; the budget only has to tell the
// commits apart.
const warmScanAllocBudget = 8.3

func TestWarmScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	store := NewMemStore()
	srcs := fixtureSources(t)
	cfg := Config{Workers: 1, Store: store}
	fill, err := scanFiles(context.Background(), srcs, cfg, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		rep, err := scanFiles(context.Background(), srcs, cfg, adviseWith(failingSuggester{}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counters.Inferred != 0 {
			t.Fatal("the scan was not warm")
		}
		if _, err := rep.JSON(); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.SARIF(); err != nil {
			t.Fatal(err)
		}
	})
	perLoop := n / float64(fill.Counters.Unique)
	t.Logf("%.0f allocations per warm scan and two encodes, %.1f per unique loop (%d loops)", n, perLoop, fill.Counters.Unique)
	if perLoop > warmScanAllocBudget {
		t.Fatalf("a warm scan allocates %.1f times per unique loop, budget %.1f", perLoop, warmScanAllocBudget)
	}
}

// warmDiskScanAllocBudget bounds the allocations of a warm scan.Dir of the
// fixture tree plus both encodes, per unique loop: TestWarmScanAllocs' scan
// with the walk and the disk reads that scan.Dir, the CLI and the harness's
// scans take. It reads 13.3 (213 for the tree's 16 loops); the budget is
// that plus 5 %, under the 14.1 a parse worker reads when it keeps no read
// buffer and reads each of the 12 files into a fresh one.
const warmDiskScanAllocBudget = 14.0

// TestWarmScanAllocsFromDisk is TestWarmScanAllocs through scan.Dir: the
// fixture tree walked and each file read into the parse worker's kept
// buffer, which a scan from memory (fixtureSources) never takes.
func TestWarmScanAllocsFromDisk(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	cfg := Config{Workers: 1, Store: NewMemStore()}
	fill, err := Dir(context.Background(), fixtureTree, cfg, &stubSuggester{})
	if err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(50, func() {
		rep, err := Dir(context.Background(), fixtureTree, cfg, failingSuggester{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counters.Inferred != 0 {
			t.Fatal("the scan was not warm")
		}
		if _, err := rep.JSON(); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.SARIF(); err != nil {
			t.Fatal(err)
		}
	})
	perLoop := n / float64(fill.Counters.Unique)
	t.Logf("%.0f allocations per warm scan from disk and two encodes, %.1f per unique loop (%d loops)", n, perLoop, fill.Counters.Unique)
	if perLoop > warmDiskScanAllocBudget {
		t.Fatalf("a warm scan from disk allocates %.1f times per unique loop, budget %.1f", perLoop, warmDiskScanAllocBudget)
	}
}

// evidenceSuggester is stubSuggester with the evidence slices a real
// verdict carries: every positive has S2S verdicts and a conversion, and a
// disagreement has a race witness and attributions out of |weight| order,
// so a renderer that ranked them in place would reorder a stored verdict.
type evidenceSuggester struct{ stubSuggester }

func (s *evidenceSuggester) SuggestBatch(codes []string) ([]advisor.BatchItem, error) {
	items, err := s.stubSuggester.SuggestBatch(codes)
	for _, it := range items {
		sg := it.Suggestion
		if !sg.Parallelize {
			continue
		}
		cor := &sg.Corroboration
		cor.S2S = []S2SVerdict{
			{Compiler: "Cetus", Compiled: true, Parallelized: true},
			{Compiler: "AutoPar", Detail: "frontend rejected the snippet"},
		}
		cor.Converted = []string{"t"}
		if cor.Tier == advisor.TierDisagree {
			cor.Races = []dep.Witness{{Array: "a", Kind: "flow", Vector: []string{"<"}, Distance: "(1)"}}
			sg.Attributions = []lime.Attribution{
				{Index: 0, Token: "for", Weight: 0.125}, {Index: 1, Token: "(", Weight: -0.75}, {Index: 2, Token: "i", Weight: 0.5},
			}
		}
	}
	return items, err
}

// storedJSON is every stored verdict's JSON, by hash.
func storedJSON(t *testing.T, store *MemStore) map[string]string {
	t.Helper()
	out := map[string]string{}
	store.cache.Range(func(h string, s *Suggestion) {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		out[h] = string(b)
	})
	return out
}

// TestStoredVerdictsStayPut: a store owns the verdicts put into it and the
// reports of a cold and a warm scan share them, so nothing a report is put
// through — JSON, SARIF, Stable(), a warm re-scan of the same tree — may
// write to one. Every stored verdict's bytes are the same after all of it.
func TestStoredVerdictsStayPut(t *testing.T) {
	store := NewMemStore()
	srcs := fixtureSources(t)
	cold, err := scanFiles(context.Background(), srcs, Config{Store: store}, adviseWith(&evidenceSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	before := storedJSON(t, store)
	unranked := 0
	store.cache.Range(func(_ string, s *Suggestion) {
		if !slices.IsSortedFunc(s.Attributions, func(a, b Attribution) int { return cmp.Compare(math.Abs(b.Weight), math.Abs(a.Weight)) }) {
			unranked++
		}
	})
	if len(before) != cold.Counters.Unique-cold.Counters.Annotated || unranked == 0 {
		t.Fatalf("%d stored verdicts (%d unranked attribution lists): the fixture no longer covers the shared evidence", len(before), unranked)
	}
	warm, err := scanFiles(context.Background(), srcs, Config{Store: store}, adviseWith(failingSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range []*Report{cold, warm} {
		for _, render := range []func() ([]byte, error){rep.JSON, rep.SARIF, rep.Stable().JSON} {
			if _, err := render(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := storedJSON(t, store); !maps.Equal(after, before) {
		for h, b := range before {
			if after[h] != b {
				t.Errorf("stored verdict %s changed:\nwas %s\nnow %s", h[:8], b, after[h])
			}
		}
		t.Fatalf("%d stored verdicts before, %d after", len(before), len(after))
	}
}

// coldScanAllocBudget bounds the allocations of a cold scan.Files into a
// fresh store plus both encodes, per unique loop of the fixture tree, with
// evidenceSuggester's verdicts (the stub's own allocations included). The
// reading is 10.8 since a bare directive prints as a constant; 11.4 before
// that, since a parse worker releases its file's tree before it returns,
// with no count of readers; 12.3 before that, since SARIF wrote every
// message of a log into one string and the parser slabbed its last per-node
// allocations; 14.6 before that, since a store took ownership of what is put
// into it and FromAdvisor shared the advisor's evidence slices; with Put
// cloning again it reads 16.4. The budget is 10.8 plus 15 %,
// TestWarmScanAllocs' margin. The fixture is scanned from memory, so the
// disk read's kept buffer (TestReadBufferKept) does not show here.
const coldScanAllocBudget = 12.4

func TestColdScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srcs := fixtureSources(t)
	cfg := Config{Workers: 1}
	var unique int
	n := testing.AllocsPerRun(50, func() {
		cfg.Store = NewMemStore()
		rep, err := scanFiles(context.Background(), srcs, cfg, adviseWith(&evidenceSuggester{}, nil))
		if err != nil {
			t.Fatal(err)
		}
		if rep.Counters.CacheHits != 0 {
			t.Fatal("the scan was not cold")
		}
		if _, err := rep.JSON(); err != nil {
			t.Fatal(err)
		}
		if _, err := rep.SARIF(); err != nil {
			t.Fatal(err)
		}
		unique = rep.Counters.Unique
	})
	perLoop := n / float64(unique)
	t.Logf("%.0f allocations per cold scan and two encodes, %.1f per unique loop (%d loops)", n, perLoop, unique)
	if perLoop > coldScanAllocBudget {
		t.Fatalf("a cold scan allocates %.1f times per unique loop, budget %.1f", perLoop, coldScanAllocBudget)
	}
}
