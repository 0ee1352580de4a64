// Package scan is the repo-scale front end of the advisor: it walks a
// directory tree of C sources (or an in-memory file set), parses each file
// with cparse, extracts every for-loop with file:line provenance through
// cast.ExtractLoops, dedupes loops by normalized content hash, and hands
// chunked batches of unique snippets to a suggester: Dir takes an
// advisor.Suggester (the in-process Models bundle), Files a function from
// snippets to report-form verdicts (the serving engine and the tier router).
//
// The pipeline is a bounded producer→parser→inference stream: one producer
// feeds Config.Workers parallel parse workers, a collector dedupes their
// loops on the fly, and full chunks of Config.BatchSize cache-missed
// snippets go to a dedicated inference goroutine while parsing continues.
// Unparseable files are skipped and counted, never fatal; a persistent
// content-hash cache (Config.CachePath) makes re-scans incremental —
// unchanged loops never reach the model. The accumulated Report renders as
// JSON (Report.JSON) or SARIF 2.1.0 (Report.SARIF).
package scan

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/cast"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
	"pragformer/internal/lime"
	"pragformer/internal/obs"
	"pragformer/internal/s2s"
)

// Config tunes a scan. Zero values take the documented defaults.
type Config struct {
	// Workers is the parallel parse worker count (default 4). Parsing and
	// hashing scale with it; inference batching is independent.
	Workers int
	// BatchSize chunks unique snippets per Suggester call (default 16 —
	// the serving engine's MaxBatch; the harness reports the per-item cost
	// at both ends as advisor.infer_b1_us_per_item and
	// advisor.infer_us_per_item).
	BatchSize int
	// CachePath names the persistent content-hash cache file. Loops whose
	// hash appears in the cache skip inference entirely; a scan rewrites
	// the file with every verdict it holds at the end. Empty disables.
	CachePath string
	// Store, when set, is the verdict store the scan reads through instead
	// of a CachePath-backed FileStore — the serving tier hands every scan
	// its shared fleet-wide store this way. The caller owns the store's
	// (backend, model) namespace discipline; fresh verdicts are written
	// back with Put. When Store is set, CachePath is ignored; with neither,
	// the scan reads through and writes back to nothing.
	Store VerdictStore
	// Backend names the compute backend the suggester runs on; recorded in
	// the report and the cache header (a cache written by one backend is
	// not replayed against another).
	Backend string
	// ModelID fingerprints the model bundle behind the suggester (artifact
	// content hash, demo-training config, ...). It is recorded in the
	// cache header next to Backend: verdicts cached under one model are
	// never replayed against another — a stale cache costs a re-scan,
	// never a wrong report.
	ModelID string
	// IncludeAnnotated also advises loops every occurrence of which
	// already carries a pragma; by default they are reported but not
	// re-advised.
	IncludeAnnotated bool
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
}

// Source is one input file: a path plus, for in-memory scans (the /scan
// endpoint), its contents. Data nil means "read Path from disk".
type Source struct {
	Path string
	Data []byte
}

// Occurrence is one site where a loop appears.
type Occurrence struct {
	File string `json:"file"`
	// Line/Col locate the `for` keyword, 1-based.
	Line int `json:"line"`
	Col  int `json:"col"`
	// Function names the enclosing function, "" at file scope.
	Function string `json:"function,omitempty"`
	// Depth is the for-nesting depth (0 = outermost).
	Depth int `json:"depth,omitempty"`
	// Pragma is an existing pragma line attached to this occurrence.
	Pragma string `json:"pragma,omitempty"`
}

// Suggestion is the advisor verdict for a unique loop, flattened to the
// one serializable form shared by the JSON report, the cache file, the
// verdict stores and the /suggest wire item.
type Suggestion struct {
	Parallelize bool    `json:"parallelize"`
	Probability float64 `json:"probability,omitempty"`
	// Directive is the rendered pragma line (empty when Parallelize is
	// false).
	Directive string `json:"directive,omitempty"`
	// Tier grades the corroboration evidence (advisor.Tier.String());
	// "disagree" marks the model-positive / analysis-negative loops that
	// surface as SARIF PF1003.
	Tier string `json:"tier,omitempty"`
	// Witness carries the dependence analysis' reasons — the carried
	// dependence or reduction pattern behind the tier.
	Witness []string `json:"witness,omitempty"`
	// Races carries the structured race witnesses behind a dependence
	// refutation: kind, both access sites anchored to the canonical snippet
	// text, and the per-level direction/distance vector (SARIF PF1004).
	Races []dep.Witness `json:"races,omitempty"`
	// Converted lists arrays the analysis rescued via privatization or
	// reduction recognition.
	Converted []string `json:"converted,omitempty"`
	// S2S holds the per-compiler corroboration verdicts.
	S2S []S2SVerdict `json:"s2s,omitempty"`
	// Attributions is the LIME token attribution attached to disagreeing
	// verdicts, in token order.
	Attributions []Attribution `json:"attributions,omitempty"`
}

// S2SVerdict is one S2S compiler's corroboration outcome: the member
// verdict the advisor keeps as evidence, which carries the wire's keys.
type S2SVerdict = s2s.MemberVerdict

// Attribution is one token's LIME weight toward the model's positive
// verdict: the explainer's own item, which carries the wire's keys. Weight
// is run-independent for agreeing backends (the advisor fits hard labels)
// but still numeric evidence — Stable() zeroes it so the cross-backend
// golden gate stays label-only.
type Attribution = lime.Attribution

// Loop is one unique loop (by normalized content hash) with every site it
// occurs at. The verdict is shared across occurrences: inferred once,
// reported everywhere.
type Loop struct {
	// Hash is the sha-256 of the canonically printed loop, so formatting
	// differences between occurrences collapse to one entry.
	Hash string `json:"hash"`
	// Snippet is the canonical source text (also what the model sees).
	Snippet     string       `json:"snippet"`
	Occurrences []Occurrence `json:"occurrences"`
	Suggestion  *Suggestion  `json:"suggestion,omitempty"`
	// Error reports a per-loop inference failure (the scan continues).
	Error string `json:"error,omitempty"`
	// FromCache marks verdicts replayed from the persistent cache.
	FromCache bool `json:"from_cache,omitempty"`
	// Annotated marks loops every occurrence of which already carries a
	// pragma; they are not advised unless Config.IncludeAnnotated.
	Annotated bool `json:"annotated,omitempty"`

	queued bool // already handed to the inference stage
}

// Skip reports one file the scan could not use, with the parse position
// when one is known.
type Skip struct {
	File   string `json:"file"`
	Line   int    `json:"line,omitempty"`
	Col    int    `json:"col,omitempty"`
	Reason string `json:"reason"`
}

// Counters aggregates scan accounting.
type Counters struct {
	// Files parsed successfully; Skipped could not be read or parsed.
	Files   int `json:"files"`
	Skipped int `json:"skipped"`
	// Loops counts occurrences; Unique counts distinct content hashes.
	Loops  int `json:"loops"`
	Unique int `json:"unique"`
	// Annotated counts unique loops left unadvised because every
	// occurrence already carries a pragma.
	Annotated int `json:"annotated"`
	// Disagreements counts unique loops whose verdict is the review tier:
	// model says parallelize, dependence analysis found a carried
	// dependence (SARIF PF1003).
	Disagreements int `json:"disagreements"`
	// Witnessed counts unique loops whose verdict carries at least one
	// structured race witness (SARIF PF1004); Converted counts unique loops
	// the analysis rescued via privatization or reduction recognition.
	Witnessed int `json:"witnessed,omitempty"`
	Converted int `json:"converted,omitempty"`
	// CacheHits counts unique loops answered from the persistent cache;
	// Inferred counts snippets that actually reached the model. A fully
	// warm re-scan has Inferred == 0.
	CacheHits int `json:"cache_hits"`
	Inferred  int `json:"inferred"`
}

// Report is the scan outcome. A loop's Suggestion is shared with the
// verdict store the scan read through or wrote back to, and with other
// reports: neither a store hit nor a fresh verdict is copied, and a fresh
// verdict's evidence slices are the advisor's. Read it freely, never write
// through it. Stable is the view that owns its verdicts.
type Report struct {
	Tool     string   `json:"tool"`
	Root     string   `json:"root,omitempty"`
	Backend  string   `json:"backend,omitempty"`
	Counters Counters `json:"counters"`
	Loops    []Loop   `json:"loops"`
	Skips    []Skip   `json:"skips,omitempty"`
}

// Dir scans the .c files under root. Unreadable or unparseable files are
// skipped and counted; the returned error is reserved for setup problems
// (bad root, cache I/O) and context cancellation.
func Dir(ctx context.Context, root string, cfg Config, sg advisor.Suggester) (*Report, error) {
	if sg == nil {
		return nil, errNoSuggester
	}
	cfg.fillDefaults()
	if _, err := os.Stat(root); err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	// Walk errors (an unreadable subdirectory, a path deleted mid-walk)
	// follow the same skip-and-count contract as unparseable files: the
	// producer records them and the walk continues. Only the producer
	// goroutine appends; run() joins it before returning, so the merge
	// below is ordered.
	rel := func(path string) string {
		if r, err := filepath.Rel(root, path); err == nil {
			return filepath.ToSlash(r)
		}
		return filepath.ToSlash(path)
	}
	var walkSkips []Skip
	produce := func(ctx context.Context, srcs chan<- Source) error {
		return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				walkSkips = append(walkSkips, Skip{File: rel(path), Reason: err.Error()})
				if d != nil && d.IsDir() {
					return filepath.SkipDir
				}
				return nil
			}
			if d.IsDir() {
				// Hidden directories (.git and friends) hold no sources.
				if name := d.Name(); name != "." && strings.HasPrefix(name, ".") {
					return filepath.SkipDir
				}
				return nil
			}
			if filepath.Ext(path) != ".c" {
				return nil
			}
			select {
			case srcs <- Source{Path: path}:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
	}
	// A traced scan records the advisor's infer/corroborate splits beside
	// its own stages.
	var onStage func(string, time.Duration)
	if tr := obs.TraceFrom(ctx); tr != nil {
		onStage = tr.Observe
	}
	rep, err := run(ctx, cfg, adviseWith(sg, onStage), produce, rel)
	if err != nil {
		return nil, err
	}
	if len(walkSkips) > 0 {
		rep.Skips = append(rep.Skips, walkSkips...)
		rep.Counters.Skipped += len(walkSkips)
		sortSkips(rep.Skips)
	}
	rep.Root = root
	return rep, nil
}

// Files scans an in-memory file set — the POST /scan payload path — with
// suggest giving one verdict per snippet, in order. Sources without Data
// are read from disk.
func Files(ctx context.Context, files []Source, cfg Config, suggest func(codes []string) []Verdict) (*Report, error) {
	if suggest == nil {
		return nil, errNoSuggester
	}
	return scanFiles(ctx, files, cfg, func(chunk []*Loop) error {
		verdicts := suggest(snippets(chunk))
		for i, l := range chunk {
			if verdicts[i].Error != "" {
				l.Error = verdicts[i].Error
				continue
			}
			// A copy of its own: a stored verdict never keeps its
			// chunk-mates alive.
			s := verdicts[i].Suggestion
			l.Suggestion = &s
		}
		return nil
	})
}

// scanFiles runs the pipeline over an in-memory file set with advise
// settling each chunk; Files wraps it with the verdict adapter.
func scanFiles(ctx context.Context, files []Source, cfg Config, advise func(chunk []*Loop) error) (*Report, error) {
	cfg.fillDefaults()
	produce := func(ctx context.Context, srcs chan<- Source) error {
		for _, f := range files {
			select {
			case srcs <- f:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		return nil
	}
	return run(ctx, cfg, advise, produce, filepath.ToSlash)
}

var errNoSuggester = errors.New("scan: a suggester is required")

// fileOut is one parse worker's result for one file. A file can be both
// partially parsed and carry skips: the recovering parser reports one
// positioned skip per broken region while the file's surviving loops still
// enter the scan. failed marks a file that contributed nothing (unreadable,
// oversized, or nothing parseable).
type fileOut struct {
	loops  []occLoop
	skips  []Skip
	failed bool
}

// occLoop is one extracted loop occurrence with its canonical snippet and
// its content hash. The snippet is a substring of the one string holding all
// of its file's prints, the hash of the one holding all of their hashes.
type occLoop struct {
	snippet string
	hash    string
	occ     Occurrence
}

// parseScratch is one parse worker's reusable memory: a file's extracted
// loops, and their canonical prints back to back with the offset each ends
// at. Nothing in it outlives the file it served — the prints are copied out
// into the file's snippet string, and the extracted loops, which point into
// the file's tree, are cleared.
type parseScratch struct {
	infos []cast.LoopInfo
	text  []byte
	ends  []int
}

var parseScratches = sync.Pool{New: func() any { return new(parseScratch) }}

// run wires the bounded pipeline: produce → parse workers → collector,
// with a side inference goroutine handing chunks of unique loops to advise,
// which settles each loop's Suggestion/Error and returns a chunk-wide error.
func run(
	ctx context.Context, cfg Config, advise func(chunk []*Loop) error,
	produce func(context.Context, chan<- Source) error,
	rel func(string) string,
) (*Report, error) {
	// Stage tracing rides the context (nil when untraced — every recording
	// call below is then a no-op, and the untraced path stays byte- and
	// behavior-identical; timing never reaches the report or the store).
	tr := obs.TraceFrom(ctx)
	// Resolve the verdict store: an injected one, else the CachePath file
	// cache, else none — byHash already dedupes within the scan, so without
	// a store there is nothing to read through or write back to.
	store := cfg.Store
	var fileStore *FileStore
	if store == nil && cfg.CachePath != "" {
		var err error
		if fileStore, err = OpenFileStore(cfg.CachePath, cfg.Backend, cfg.ModelID); err != nil {
			return nil, err
		}
		store = fileStore
	}

	srcs := make(chan Source, cfg.Workers)
	outs := make(chan fileOut, cfg.Workers)

	// Producer.
	var produceErr error
	var produceWG sync.WaitGroup
	produceWG.Add(1)
	go func() {
		defer produceWG.Done()
		defer close(srcs)
		endWalk := tr.Start("walk")
		produceErr = produce(ctx, srcs)
		endWalk()
	}()

	// Parse workers.
	var parseWG sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		parseWG.Add(1)
		go func() {
			defer parseWG.Done()
			scratch := parseScratches.Get().(*parseScratch)
			defer parseScratches.Put(scratch)
			for src := range srcs {
				endParse := tr.Start("parse")
				fo := parseSource(src, cfg, rel, scratch)
				endParse()
				select {
				case outs <- fo:
				case <-ctx.Done():
					return
				}
			}
		}()
	}
	go func() {
		parseWG.Wait()
		close(outs)
	}()

	// Inference stage: full chunks of cache-missed unique loops run
	// through the suggester while parsing continues. The goroutine is the
	// sole writer of Loop.Suggestion/Error after handoff; the collector
	// keeps appending occurrences to the same Loop values, which is safe —
	// the two stages touch disjoint fields.
	chunks := make(chan []*Loop, 2)
	infDone := make(chan struct{})
	inferred := 0
	go func() {
		defer close(infDone)
		for chunk := range chunks {
			if ctx.Err() != nil {
				continue // drain without inferring
			}
			inferred += len(chunk)
			endAdvise := tr.Start("advise")
			err := advise(chunk)
			endAdvise()
			if err != nil {
				for _, l := range chunk {
					l.Error = err.Error()
				}
			}
		}
	}()

	// Collector: dedupe, cache lookup, chunk assembly.
	rep := &Report{Tool: "pragformer scan", Backend: cfg.Backend}
	byHash := map[string]*Loop{}
	var loops []*Loop
	// A unique loop and its first occurrence are carved from chunks. The
	// occurrence slice has capacity one, so a second occurrence moves the
	// loop's slice out of its chunk, as an append to a nil slice would.
	var loopChunk []Loop
	var occChunk []Occurrence
	var pending []*Loop
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		chunk := pending
		pending = nil
		select {
		case chunks <- chunk:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	enqueue := func(l *Loop) error {
		l.queued = true
		if pending == nil {
			pending = make([]*Loop, 0, cfg.BatchSize)
		}
		pending = append(pending, l)
		if len(pending) >= cfg.BatchSize {
			return flush()
		}
		return nil
	}
	var collectErr error
	var dDedupe time.Duration // single aggregate span, emitted after collect
collect:
	for {
		select {
		case fo, ok := <-outs:
			if !ok {
				break collect
			}
			rep.Skips = append(rep.Skips, fo.skips...)
			if fo.failed {
				rep.Counters.Skipped++
				continue
			}
			rep.Counters.Files++
			for _, ol := range fo.loops {
				rep.Counters.Loops++
				var tDedupe time.Time
				if tr != nil {
					tDedupe = time.Now()
				}
				h := ol.hash
				l, seen := byHash[h]
				if tr != nil {
					dDedupe += time.Since(tDedupe)
				}
				if seen {
					l.Occurrences = append(l.Occurrences, ol.occ)
				} else {
					l = &carve(&loopChunk)[0]
					l.Hash, l.Snippet = h, ol.snippet
					l.Occurrences = carve(&occChunk)
					l.Occurrences[0] = ol.occ
					byHash[h] = l
					loops = append(loops, l)
					if store != nil {
						endGet := tr.Start("store.get")
						hit, ok := store.Get(h)
						endGet()
						if ok {
							l.Suggestion = hit // shared with the store: see Report
							l.FromCache = true
							l.queued = true
							rep.Counters.CacheHits++
						}
					}
				}
				advisable := ol.occ.Pragma == "" || cfg.IncludeAnnotated
				if !l.queued && advisable {
					if err := enqueue(l); err != nil {
						collectErr = err
						break collect
					}
				}
			}
		case <-ctx.Done():
			collectErr = ctx.Err()
			break collect
		}
	}
	if collectErr == nil {
		collectErr = flush()
	}
	if tr != nil {
		tr.Observe("dedupe", dDedupe)
	}
	close(chunks)
	<-infDone
	produceWG.Wait()
	parseWG.Wait()
	if collectErr != nil {
		return nil, collectErr
	}
	if produceErr != nil {
		return nil, fmt.Errorf("scan: %w", produceErr)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep.Counters.Unique = len(loops)
	rep.Counters.Inferred = inferred
	finalize(rep, loops, cfg.IncludeAnnotated)
	// Write fresh verdicts back through the store. Loops that errored are
	// left out so the next scan retries them; finalize may have stripped a
	// cached verdict off an annotated loop, which leaves the stored entry
	// in place (the strip protects this report's bytes, not the store).
	for _, l := range loops {
		if store != nil && l.Suggestion != nil && l.Error == "" && !l.FromCache {
			endPut := tr.Start("store.put")
			store.Put(l.Hash, l.Suggestion)
			endPut()
		}
	}
	if fileStore != nil {
		if err := fileStore.Flush(); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// Verdict is one snippet's outcome in the report form: a suggestion or a
// per-snippet error (unlexable snippet, shed, failed forward). It is also
// the /suggest wire item (api.SuggestResult): the serving engine answers a
// /suggest with it, and the tier router decodes a replica's reply straight
// into it.
type Verdict struct {
	Suggestion
	Error string `json:"error,omitempty"`
}

// adviseWith settles chunks through an advisor.Suggester, handing it the
// stage hook when it takes one (the in-process Models path). The suggester
// sees each loop's canonical text alone, as every other entry point's does.
func adviseWith(sg advisor.Suggester, onStage func(string, time.Duration)) func(chunk []*Loop) error {
	return func(chunk []*Loop) error {
		var items []advisor.BatchItem
		var err error
		if ss, ok := sg.(advisor.StagedSuggester); ok {
			items, err = ss.SuggestBatchStaged(snippets(chunk), onStage)
		} else {
			items, err = sg.SuggestBatch(snippets(chunk))
		}
		if err != nil {
			return err
		}
		for i, l := range chunk {
			if items[i].Err != nil {
				l.Error = items[i].Err.Error()
				continue
			}
			s := FromAdvisor(items[i].Suggestion)
			l.Suggestion = &s
		}
		return nil
	}
}

func snippets(chunk []*Loop) []string {
	codes := make([]string, len(chunk))
	for i, l := range chunk {
		codes[i] = l.Snippet
	}
	return codes
}

// parseSource reads (if needed) and parses one file, extracting its loops.
// Each loop is printed into the worker's scratch and hashed off its byte
// range there; the file's snippets then come from one string and its hashes
// from another. The hashes stand apart so that a verdict store's key holds
// only its file's digests alive, not its printed loops.
func parseSource(src Source, cfg Config, rel func(string) string, sc *parseScratch) fileOut {
	name := rel(src.Path)
	data := src.Data
	if data == nil {
		var err error
		if data, err = readSource(src.Path); err != nil {
			return fileOut{failed: true, skips: []Skip{{File: name, Reason: err.Error()}}}
		}
	} else if size := int64(len(data)); size > maxFileBytes {
		return fileOut{failed: true, skips: []Skip{{File: name, Reason: tooLarge(size)}}}
	}
	// The recovering parser keeps going past a broken region, so a file with
	// one malformed function still contributes its other loops; each broken
	// region surfaces as a positioned skip. A file that yields nothing keeps
	// the old whole-file-skip shape (first error only — the rest are usually
	// cascade noise). Nothing but strings outlives the tree — occurrences,
	// canonical prints and hashes never point into it — so its slabs go back
	// to the parser pool when the file is done.
	tree := cparse.ParseTree(string(data))
	defer tree.Release()
	if len(tree.File.Items) == 0 && len(tree.Errs) > 0 {
		pe := tree.Errs[0]
		return fileOut{failed: true, skips: []Skip{
			{File: name, Line: pe.Line, Col: pe.Col, Reason: pe.Error()}}}
	}
	var out fileOut
	for _, pe := range tree.Errs {
		out.skips = append(out.skips, Skip{File: name, Line: pe.Line, Col: pe.Col, Reason: pe.Error()})
	}
	sc.infos = cast.AppendLoops(sc.infos[:0], tree.File)
	defer clear(sc.infos) // the scratch keeps no node of a tree headed back to the parser pool
	if len(sc.infos) == 0 {
		return out
	}
	var hashes strings.Builder
	hashes.Grow(hashLen * len(sc.infos))
	sc.text, sc.ends = sc.text[:0], sc.ends[:0]
	for _, li := range sc.infos {
		start := len(sc.text)
		sc.text = cast.AppendPrint(sc.text, li.Loop)
		sc.ends = append(sc.ends, len(sc.text))
		d := digest(sc.text[start:])
		hashes.Write(d[:])
	}
	text, hashText := string(sc.text), hashes.String()
	out.loops = make([]occLoop, len(sc.infos))
	start := 0
	for i, li := range sc.infos {
		end := sc.ends[i]
		out.loops[i] = occLoop{
			snippet: text[start:end],
			hash:    hashText[i*hashLen : (i+1)*hashLen],
			occ: Occurrence{
				File: name, Line: li.Loop.Line, Col: li.Loop.Col,
				Function: li.Function, Depth: li.Depth, Pragma: li.Pragma,
			},
		}
		start = end
	}
	return out
}

// readSource reads the file at path. One open serves the size check and the
// read, and the read stops one byte past maxFileBytes, so a file that grew
// past it after the Stat is refused too, not read whole.
func readSource(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if info.Size() > maxFileBytes {
		return nil, errors.New(tooLarge(info.Size()))
	}
	return readAtMost(f, info.Size(), maxFileBytes)
}

// readAtMost reads r to its end into one buffer sized for size bytes plus
// the one that shows EOF, and fails once it holds more than limit bytes.
func readAtMost(r io.Reader, size, limit int64) ([]byte, error) {
	data := make([]byte, 0, size+1)
	for {
		if len(data) == cap(data) {
			data = append(data, 0)[:len(data)]
		}
		end := cap(data)
		if int64(end) > limit {
			end = int(limit) + 1
		}
		n, err := r.Read(data[len(data):end])
		data = data[:len(data)+n]
		if int64(len(data)) > limit {
			return nil, fmt.Errorf("file too large (grew past %d bytes while read)", limit)
		}
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// maxFileBytes is the largest file a scan parses; a larger one is skipped.
const maxFileBytes = 1 << 20

// tooLarge is the skip reason of a file over maxFileBytes, on disk or in
// memory.
func tooLarge(size int64) string {
	return fmt.Sprintf("file too large (%d bytes > %d)", size, maxFileBytes)
}

// carve returns the next element of *chunk as a slice of length and
// capacity one, starting a new chunk when the last is used up.
func carve[T any](chunk *[]T) []T {
	const chunkLen = 64
	if len(*chunk) == 0 {
		*chunk = make([]T, chunkLen)
	}
	one := (*chunk)[:1:1]
	*chunk = (*chunk)[1:]
	return one
}

// hashLen is the length of a HashSnippet hash: a hex sha-256.
const hashLen = 2 * sha256.Size

// HashSnippet is the normalized content hash over a canonically printed
// loop: parsing and re-printing canonicalizes formatting, so the hash
// collapses occurrences that differ only in whitespace or brace style.
// It is the key of every VerdictStore and the serving tier's
// consistent-hash routing key — one hash function end to end keeps each
// replica's caches hot for the loops routed to it. The snippet is hashed
// without a copy of it (advisor.SnippetSum): one allocation, the result.
func HashSnippet(snippet string) string {
	d := digest(snippet)
	return string(d[:])
}

// digest is HashSnippet before it is a string, also over a print's bytes.
func digest[T string | []byte](text T) (digits [hashLen]byte) {
	sum := advisor.SnippetSum(text)
	hex.Encode(digits[:], sum[:])
	return digits
}

// finalize orders the report deterministically (parse workers race on
// discovery order) and settles per-loop flags and counters.
func finalize(rep *Report, loops []*Loop, includeAnnotated bool) {
	for _, l := range loops {
		slices.SortFunc(l.Occurrences, compareOccurrences)
		annotated := true
		for _, occ := range l.Occurrences {
			if occ.Pragma == "" {
				annotated = false
				break
			}
		}
		l.Annotated = annotated
		// The cache is looked up before a loop's annotation status is
		// known; a verdict cached by an -include-annotated run must not
		// leak onto an annotated loop in a scan without the flag, or warm
		// and cold reports would diverge.
		if annotated && !includeAnnotated && l.FromCache {
			l.Suggestion = nil
			l.FromCache = false
			rep.Counters.CacheHits--
		}
		if annotated && !includeAnnotated {
			rep.Counters.Annotated++
		}
		if l.Suggestion != nil && l.Suggestion.Tier == advisor.TierDisagree.String() {
			rep.Counters.Disagreements++
		}
		if l.Suggestion != nil && len(l.Suggestion.Races) > 0 {
			rep.Counters.Witnessed++
		}
		if l.Suggestion != nil && len(l.Suggestion.Converted) > 0 {
			rep.Counters.Converted++
		}
	}
	slices.SortFunc(loops, func(a, b *Loop) int {
		return cmp.Or(compareOccurrences(a.Occurrences[0], b.Occurrences[0]), strings.Compare(a.Hash, b.Hash))
	})
	rep.Loops = make([]Loop, len(loops))
	for i, l := range loops {
		rep.Loops[i] = *l
	}
	sortSkips(rep.Skips)
}

// compareOccurrences orders sites by file, line and column.
func compareOccurrences(a, b Occurrence) int {
	return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line), cmp.Compare(a.Col, b.Col))
}

func sortSkips(skips []Skip) {
	slices.SortFunc(skips, func(a, b Skip) int {
		return cmp.Or(strings.Compare(a.File, b.File), cmp.Compare(a.Line, b.Line))
	})
}

// FromAdvisor flattens an advisor suggestion into the report form — the
// one place a verdict changes shape. Scan reports, the verdict stores and
// the /suggest wire item (Verdict) all carry its result. The evidence
// slices are the suggestion's own: a verdict is built once and only read
// after.
func FromAdvisor(s *advisor.Suggestion) Suggestion {
	out := Suggestion{
		Parallelize:  s.Parallelize,
		Probability:  s.Probability,
		Tier:         s.Corroboration.Tier.String(),
		Witness:      s.Corroboration.DepWitness,
		Races:        s.Corroboration.Races,
		Converted:    s.Corroboration.Converted,
		S2S:          s.Corroboration.S2S,
		Attributions: s.Attributions,
	}
	if s.Directive != nil {
		out.Directive = s.Directive.String()
	}
	return out
}

// clone is the deep copy Report.Stable clears its run-dependent fields in.
func (s *Suggestion) clone() *Suggestion {
	c := *s
	c.Witness = slices.Clone(s.Witness)
	c.Races = slices.Clone(s.Races)
	c.Converted = slices.Clone(s.Converted)
	c.S2S = slices.Clone(s.S2S)
	c.Attributions = slices.Clone(s.Attributions)
	return &c
}
