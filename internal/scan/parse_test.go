package scan

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/cast"
	"pragformer/internal/cparse"
)

// parityFiles cover the shapes a file's print buffer can take: no loop, one
// loop, and loops nested three deep around a while.
var parityFiles = map[string]string{
	"noloops.c": "int f(int n) {\n    int s = 0;\n    while (n > 0) { s += n; n--; }\n    return s;\n}\n",
	"one.c":     "void g(double *a, int n) { int i; for (i = 0; i < n; i++) a[i] = 0.0; }\n",
	"nested.c": `void h(double *a, double *b, int n) {
    int i, j, k;
    for (i = 0; i < n; i++) {
        for (j = 0; j < n; j++) {
            k = 0;
            while (k < j) { k++; }
            for (k = 0; k < n; k++)
                a[i * n + j] += b[j * n + k];
        }
    }
}
`,
}

// TestLoopHashIsHashSnippet: a parse worker prints a file's loops into one
// buffer and hashes each off its byte range there. Every report loop's hash
// must still be HashSnippet of its snippet, and the snippet cast.Print of
// the loop each occurrence points at, parsed again here on its own — cold
// and warm, on one worker and four, on disk and in memory.
func TestLoopHashIsHashSnippet(t *testing.T) {
	dir := t.TempDir()
	srcs := fixtureSources(t)
	for name, code := range parityFiles {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(code), 0o644); err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, Source{Path: name, Data: []byte(code)})
	}
	inMemory := map[string]string{}
	for _, src := range srcs {
		inMemory[filepath.ToSlash(src.Path)] = string(src.Data)
	}
	onDisk := func(root string) func(string) string {
		return func(file string) string {
			data, err := os.ReadFile(filepath.Join(root, file))
			if err != nil {
				t.Fatal(err)
			}
			return string(data)
		}
	}
	cases := []struct {
		name   string
		scan   func(Config, advisor.Suggester) (*Report, error)
		source func(file string) string
		files  int
		parity bool // the scan includes parityFiles
	}{
		{"Files", func(cfg Config, sg advisor.Suggester) (*Report, error) {
			return scanFiles(context.Background(), srcs, cfg, adviseWith(sg, nil))
		}, func(file string) string { return inMemory[file] }, 11 + len(parityFiles), true},
		{"Dir fixture", func(cfg Config, sg advisor.Suggester) (*Report, error) {
			return Dir(context.Background(), fixtureTree, cfg, sg)
		}, onDisk(fixtureTree), 11, false},
		{"Dir parity files", func(cfg Config, sg advisor.Suggester) (*Report, error) {
			return Dir(context.Background(), dir, cfg, sg)
		}, onDisk(dir), len(parityFiles), true},
	}
	for _, c := range cases {
		printed := map[string]map[[2]int]string{} // file → line:col → Print
		for _, workers := range []int{1, 4} {
			store := NewMemStore()
			cold, err := c.scan(Config{Workers: workers, Store: store}, &stubSuggester{})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := c.scan(Config{Workers: workers, Store: store}, failingSuggester{})
			if err != nil {
				t.Fatal(err)
			}
			if warm.Counters.Inferred != 0 || warm.Counters.CacheHits == 0 {
				t.Fatalf("%s, %d workers: the second scan was not warm: %+v", c.name, workers, warm.Counters)
			}
			for pass, rep := range map[string]*Report{"cold": cold, "warm": warm} {
				where := fmt.Sprintf("%s, %d workers, %s", c.name, workers, pass)
				if rep.Counters.Files != c.files {
					t.Errorf("%s: %d files scanned, want %d", where, rep.Counters.Files, c.files)
				}
				perFile := map[string][]int{} // file → depths
				for _, l := range rep.Loops {
					if l.Hash != HashSnippet(l.Snippet) {
						t.Errorf("%s: loop hash %s is not HashSnippet of its snippet\n%s", where, l.Hash, l.Snippet)
					}
					for _, occ := range l.Occurrences {
						perFile[occ.File] = append(perFile[occ.File], occ.Depth)
						if printed[occ.File] == nil {
							printed[occ.File] = printLoops(t, c.source(occ.File))
						}
						if want, ok := printed[occ.File][[2]int{occ.Line, occ.Col}]; !ok || l.Snippet != want {
							t.Errorf("%s: %s:%d:%d: snippet\n%s\nwant cast.Print of the loop there\n%s",
								where, occ.File, occ.Line, occ.Col, l.Snippet, want)
						}
					}
				}
				if !c.parity {
					continue
				}
				slices.Sort(perFile["nested.c"])
				if len(perFile["noloops.c"]) != 0 || len(perFile["one.c"]) != 1 || !slices.Equal(perFile["nested.c"], []int{0, 1, 2}) {
					t.Errorf("%s: loop depths by file %v, want none in noloops.c, one in one.c, 0 1 2 in nested.c", where, perFile)
				}
			}
		}
	}
}

// TestHashSnippetAllocs: HashSnippet hashes a string through a stack chunk,
// so its one allocation is the result, and it is digest over the same
// bytes (the parse workers' hash) and the hex sha-256 — for every fixture
// loop, and for all of them end to end, a text that spans several chunks.
func TestHashSnippetAllocs(t *testing.T) {
	rep, err := scanFiles(context.Background(), fixtureSources(t), Config{}, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	var all strings.Builder
	texts := []string{""}
	for _, l := range rep.Loops {
		texts = append(texts, l.Snippet)
		all.WriteString(l.Snippet)
	}
	texts = append(texts, all.String())
	for _, s := range texts {
		d, want := digest([]byte(s)), fmt.Sprintf("%x", sha256.Sum256([]byte(s)))
		if got := HashSnippet(s); got != string(d[:]) || got != want {
			t.Errorf("HashSnippet of a %d-byte text is %s, its digest %s, the hex sha-256 %s", len(s), got, d, want)
		}
		if raceEnabled {
			continue // the race detector allocates on its own
		}
		if n := testing.AllocsPerRun(100, func() { HashSnippet(s) }); n != 1 {
			t.Errorf("HashSnippet of a %d-byte text allocates %v times, want 1", len(s), n)
		}
	}
	if all.Len() <= 2*512 {
		t.Fatalf("the fixture's loops end to end are %d bytes: no text spans three chunks", all.Len())
	}
}

// printLoops maps each for-loop of src, by the line:col of its keyword, to
// its canonical print.
func printLoops(t *testing.T, src string) map[[2]int]string {
	t.Helper()
	f, _ := cparse.ParseRecover(src)
	out := map[[2]int]string{}
	for _, li := range cast.ExtractLoops(f) {
		out[[2]int{li.Loop.Line, li.Loop.Col}] = cast.Print(li.Loop)
	}
	return out
}

// TestMaxFileBytesBothPaths: a file one byte over maxFileBytes is skipped
// with the same reason whether it is read from disk or handed over in
// memory, and a file exactly at the limit beside it still scans.
func TestMaxFileBytesBothPaths(t *testing.T) {
	one := parityFiles["one.c"]
	limit := one + strings.Repeat("\n", maxFileBytes-len(one))
	big := limit + "\n"
	dir := t.TempDir()
	for name, code := range map[string]string{"big.c": big, "limit.c": limit} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(code), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Workers: 2}
	onDisk, err := Dir(context.Background(), dir, cfg, &stubSuggester{})
	if err != nil {
		t.Fatal(err)
	}
	inMemory, err := scanFiles(context.Background(),
		[]Source{{Path: "big.c", Data: []byte(big)}, {Path: "limit.c", Data: []byte(limit)}}, cfg, adviseWith(&stubSuggester{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := []Skip{{File: "big.c", Reason: fmt.Sprintf("file too large (%d bytes > %d)", len(big), maxFileBytes)}}
	for path, rep := range map[string]*Report{"Dir": onDisk, "Files": inMemory} {
		if !slices.Equal(rep.Skips, want) {
			t.Errorf("%s: skips %+v, want %+v", path, rep.Skips, want)
		}
		if c := rep.Counters; c.Files != 1 || c.Skipped != 1 || c.Loops != 1 {
			t.Errorf("%s: files/skipped/loops = %d/%d/%d, want 1/1/1", path, c.Files, c.Skipped, c.Loops)
		}
	}
}

// TestReadStopsPastTheLimit: the disk read takes its Stat's size as a buffer
// hint only. A file that grew past the limit after the Stat is refused once
// limit+1 bytes are in, never read whole; one that grew within the limit,
// or whose Stat said 0 (a pipe), is read whole.
func TestReadStopsPastTheLimit(t *testing.T) {
	const limit = 100
	for _, c := range []struct {
		size, statSize int
		ok             bool
	}{
		{0, 0, true}, {100, 100, true}, {100, 40, true}, {100, 0, true},
		{101, 100, false}, {101, 40, false}, {5000, 40, false},
	} {
		r := strings.NewReader(strings.Repeat("x", c.size))
		data, err := readAtMost(r, int64(c.statSize), limit)
		if consumed := c.size - r.Len(); consumed > limit+1 {
			t.Errorf("%d bytes, Stat %d: read %d bytes, more than limit+1", c.size, c.statSize, consumed)
		}
		if c.ok && (err != nil || len(data) != c.size) {
			t.Errorf("%d bytes, Stat %d: read %d bytes, err %v; want it whole", c.size, c.statSize, len(data), err)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "file too large")) {
			t.Errorf("%d bytes, Stat %d: err %v, want file too large", c.size, c.statSize, err)
		}
	}
}
