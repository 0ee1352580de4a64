package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/cast"
	"pragformer/internal/core"
	"pragformer/internal/cparse"
	"pragformer/internal/dep"
	"pragformer/internal/lime"
	"pragformer/internal/s2s"
	"pragformer/internal/scan"
	"pragformer/internal/serve"
	"pragformer/internal/tokenize"
)

// The layer replay pushes a workload's first inputs through each layer's
// public function, one span per call, so that every layer has a number on
// every workload — including the layers that workload's own path never
// reaches. All timings are the median of the calls.

// timings collects one layer's call durations.
type timings struct {
	rec  *recorder
	name string
	d    []float64 // microseconds
}

func (t *timings) call(fn func()) {
	t.d = append(t.d, float64(t.rec.time("replay."+t.name, fn).Nanoseconds())/1000)
}

func (t *timings) medianUs() float64 { return median(t.d) }

// limeInputs bounds the replayed explanations: one costs milliseconds.
const limeInputs = 32

// fleetInputs bounds the passes that go through a batcher: each request
// waits out the 2 ms coalescing window.
const fleetInputs = 192

// constSuggester answers every loop with the same verdict, so that a scan
// through it costs the pipeline alone.
type constSuggester struct{}

func (constSuggester) SuggestBatch(codes []string) ([]advisor.BatchItem, error) {
	items := make([]advisor.BatchItem, len(codes))
	for i := range items {
		items[i].Suggestion = &advisor.Suggestion{}
	}
	return items, nil
}

// replay returns the per-layer metrics that come from direct calls. loops
// are canonical loop texts, recs the raw corpus records they came from.
func replay(models *advisor.Models, loops, recs []string, dir string, rec *recorder) (map[string]float64, error) {
	m := map[string]float64{}
	lt := func(name string) *timings { return &timings{rec: rec, name: name} }
	maxLen := models.EffectiveMaxLen()

	// tokenize
	extract, encode := lt("tokenize.extract"), lt("tokenize.encode")
	var toks [][]string
	var ids [][]int
	nTok := 0
	for _, code := range loops {
		var ts []string
		var err error
		extract.call(func() { ts, err = tokenize.Extract(code, tokenize.Text) })
		if err != nil {
			return nil, fmt.Errorf("replay tokenize: %w", err)
		}
		var id []int
		encode.call(func() { id = models.Vocab.Encode(ts, maxLen) })
		toks, ids, nTok = append(toks, ts), append(ids, id), nTok+len(ts)
	}
	m["tokenize.extract_us"] = extract.medianUs()
	m["tokenize.encode_us"] = encode.medianUs()
	m["tokenize.tokens_per_snippet"] = float64(nTok) / float64(len(loops))

	// core (float64) and quant (int8) forwards
	pf, ok := models.Directive.(*core.PragFormer)
	if !ok {
		return nil, fmt.Errorf("replay: the trained directive classifier is %T, not float64", models.Directive)
	}
	var q core.Backend
	var err error
	m["quant.quantize_ms"] = ms(rec.time("replay.core.quantize", func() { q, err = core.Quantize(pf) }))
	if err != nil {
		return nil, err
	}
	for _, b := range []struct {
		layer   string
		backend core.Backend
	}{{"core", pf}, {"quant", q}} {
		b1, b16 := lt(b.layer+".predict_batch1"), lt(b.layer+".predict_batch16")
		for _, id := range ids {
			b1.call(func() { b.backend.PredictBatch([][]int{id}) })
		}
		mallocs := memStats().Mallocs
		for i := 0; i+16 <= len(ids); i += 16 {
			b16.call(func() { b.backend.PredictBatch(ids[i : i+16]) })
		}
		m[b.layer+".predict_batch1_us"] = b1.medianUs()
		m[b.layer+".predict_batch16_us"] = b16.medianUs()
		if b.layer == "core" {
			m["core.predict_allocs_per_call"] = float64(memStats().Mallocs-mallocs) / float64(max(len(b16.d), 1))
		}
	}

	// cparse, cast, hash — on the snippet and on whole files of a tree
	replayTree := filepath.Join(dir, "replay-tree")
	if err := writeTree(replayTree, recs); err != nil {
		return nil, err
	}
	parseSnip, parseFile := lt("cparse.parse_snippet"), lt("cparse.parse_file")
	extractLoops, print, hash := lt("cast.extract_loops"), lt("cast.print"), lt("scan.hash_snippet")
	var firstLoops []*cast.For
	for _, code := range loops {
		var f *cast.File
		parseSnip.call(func() { f, err = cparse.Parse(code) })
		if err != nil {
			firstLoops = append(firstLoops, nil)
			continue
		}
		firstLoops = append(firstLoops, s2s.FirstLoop(f))
	}
	files, _ := filepath.Glob(filepath.Join(replayTree, "*", "*.c"))
	sort.Strings(files)
	for _, path := range files {
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f *cast.File
		parseFile.call(func() { f, _ = cparse.ParseRecover(string(src)) })
		var infos []cast.LoopInfo
		extractLoops.call(func() { infos = cast.ExtractLoops(f) })
		for _, li := range infos {
			var text string
			print.call(func() { text = cast.Print(li.Loop) })
			hash.call(func() { scan.HashSnippet(text) })
		}
	}
	m["cparse.parse_snippet_us"] = parseSnip.medianUs()
	m["cparse.parse_file_us"] = parseFile.medianUs()
	m["cast.extract_loops_us"] = extractLoops.medianUs()
	m["cast.print_us"] = print.medianUs()
	m["scan.hash_snippet_us"] = hash.medianUs()

	// dep, s2s, lime
	analyze, compile, explain := lt("dep.analyze"), lt("s2s.compile_each"), lt("lime.explain")
	refuted, analyzed := 0, 0
	compar := s2s.NewComPar()
	for i, code := range loops {
		if loop := firstLoops[i]; loop != nil {
			var a *dep.Analysis
			analyze.call(func() { a = dep.AnalyzeLoop(loop, nil) })
			analyzed++
			if !a.Parallelizable {
				refuted++
			}
		}
		compile.call(func() { compar.CompileEach(code) })
	}
	for i := 0; i < min(limeInputs, len(loops)); i++ {
		explain.call(func() { explainLike(models, loops[i], toks[i]) })
	}
	m["dep.analyze_us"] = analyze.medianUs()
	m["dep.refuted_ratio"] = float64(refuted) / float64(max(analyzed, 1))
	m["s2s.compile_each_us"] = compile.medianUs()
	m["lime.explain_ms"] = explain.medianUs() / 1000

	// advisor, through its stage hook, at batch 16 and batch 1
	var infer16, corr16, infer1 time.Duration
	positive, disagree := 0, 0
	for i := 0; i < len(loops); i += 16 {
		chunk := loops[i:min(i+16, len(loops))]
		var items []advisor.BatchItem
		rec.time("replay.advisor.suggest_batch16", func() {
			items, err = models.SuggestBatchStaged(chunk, func(stage string, d time.Duration) {
				if stage == "infer" {
					infer16 += d
				} else {
					corr16 += d
				}
			})
		})
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			if it.Suggestion != nil && it.Suggestion.Parallelize {
				positive++
			}
			if it.Suggestion != nil && it.Suggestion.Tier() == advisor.TierDisagree {
				disagree++
			}
		}
	}
	for _, code := range loops {
		rec.time("replay.advisor.suggest_batch1", func() {
			_, err = models.SuggestBatchStaged([]string{code}, func(stage string, d time.Duration) {
				if stage == "infer" {
					infer1 += d
				}
			})
		})
		if err != nil {
			return nil, err
		}
	}
	n := float64(len(loops))
	m["advisor.infer_us_per_item"] = us(infer16) / n
	m["advisor.infer_b1_us_per_item"] = us(infer1) / n
	m["advisor.corroborate_us_per_item"] = us(corr16) / n
	m["advisor.positive_ratio"] = float64(positive) / n
	m["advisor.disagree_ratio"] = float64(disagree) / n

	// scan: the pipeline alone, the report encoders, the stores
	q8, err := models.WithBackend(core.BackendInt8)
	if err != nil {
		return nil, err
	}
	pipeline := lt("scan.pipeline")
	for i := 0; i < 5; i++ {
		pipeline.call(func() {
			_, err = scan.Dir(context.Background(), replayTree, scanConfig(scan.NewMemStore()), constSuggester{})
		})
		if err != nil {
			return nil, err
		}
	}
	m["scan.pipeline_ms"] = pipeline.medianUs() / 1000
	rep, err := scan.Dir(context.Background(), replayTree, scanConfig(scan.NewMemStore()), q8)
	if err != nil {
		return nil, err
	}
	m["scan.report_json_ms"] = ms(rec.time("replay.scan.report_json", func() { _, err = rep.JSON() }))
	if err != nil {
		return nil, err
	}
	m["scan.report_sarif_ms"] = ms(rec.time("replay.scan.report_sarif", func() { _, err = rep.SARIF() }))
	if err != nil {
		return nil, err
	}
	m["scan.dedupe_ratio"] = 1 - float64(rep.Counters.Unique)/float64(max(rep.Counters.Loops, 1))
	m["scan.skip_ratio"] = float64(len(rep.Skips)) / float64(max(len(recs), 1))
	cachePath := filepath.Join(dir, "replay-cache.json")
	fs, err := scan.OpenFileStore(cachePath, core.BackendInt8, "bench")
	if err != nil {
		return nil, err
	}
	mem := scan.NewMemStore()
	put := rec.time("replay.scan.store_put", func() {
		for i := range rep.Loops {
			mem.Put(rep.Loops[i].Hash, rep.Loops[i].Suggestion)
		}
	})
	get := rec.time("replay.scan.store_get", func() {
		for i := range rep.Loops {
			mem.Get(rep.Loops[i].Hash)
		}
	})
	for i := range rep.Loops {
		fs.Put(rep.Loops[i].Hash, rep.Loops[i].Suggestion)
	}
	m["scan.store_put_ns"] = float64(put.Nanoseconds()) / float64(len(rep.Loops))
	m["scan.store_get_ns"] = float64(get.Nanoseconds()) / float64(len(rep.Loops))
	m["scan.filestore_flush_ms"] = ms(rec.time("replay.scan.filestore_flush", func() { err = fs.Flush() }))
	if err != nil {
		return nil, err
	}
	m["scan.filestore_open_ms"] = ms(rec.time("replay.scan.filestore_open", func() {
		_, err = scan.OpenFileStore(cachePath, core.BackendInt8, "bench")
	}))
	if err != nil {
		return nil, err
	}

	// serve and tier: one connection, texts no engine has seen, so that
	// the direct and the routed pass do the same work behind the HTTP layer
	texts := loops[:min(fleetInputs, len(loops))]
	direct, err := newFleet(models, 1, 1) // its router is not used
	if err != nil {
		return nil, err
	}
	defer direct.close()
	routed, err := newFleet(models, 2, 1)
	if err != nil {
		return nil, err
	}
	defer routed.close()
	var buf bytes.Buffer
	httpPass := func(name string, f *fleet, url string, body func(int) []byte) (float64, error) {
		t := lt(name)
		for i := range texts {
			var err error
			t.call(func() { err = f.post(url, body(i), "", &buf) })
			if err != nil {
				return 0, err
			}
		}
		return t.medianUs(), nil
	}
	bodyOf := func(i int) []byte { return codeBody(texts[i]) }
	if m["serve.http_suggest_us"], err = httpPass("serve.http_suggest", direct, direct.replicas[0].URL+"/suggest", bodyOf); err != nil {
		return nil, err
	}
	if m["serve.http_predict_us"], err = httpPass("serve.http_predict", direct, direct.replicas[0].URL+"/predict", bodyOf); err != nil {
		return nil, err
	}
	// The routed pass also gives the serve.* and tier.* counter metrics of
	// a workload that runs no fleet of its own; a tier workload overwrites
	// them with the movement over its load.
	before, _, err := routed.counters()
	if err != nil {
		return nil, err
	}
	routedUs, err := httpPass("tier.http_suggest", routed, routed.front.URL+"/suggest", bodyOf)
	if err != nil {
		return nil, err
	}
	after, scrape, err := routed.counters()
	if err != nil {
		return nil, err
	}
	for k, v := range before.layerMetrics(after) {
		m[k] = v
	}
	m["obs.metrics_scrape_ms"] = ms(scrape)
	m["tier.router_overhead_us"] = routedUs - m["serve.http_suggest_us"]
	engine, err := serve.New(models, serve.Config{})
	if err != nil {
		return nil, err
	}
	defer engine.Close()
	engineSuggest := lt("serve.engine_suggest")
	for _, code := range texts {
		engineSuggest.call(func() { _, err = engine.Suggest(context.Background(), code) })
		if err != nil {
			return nil, err
		}
	}
	m["serve.engine_suggest_us"] = engineSuggest.medianUs()
	return m, nil
}

// explainLike is the attribution the advisor computes for a disagreement,
// assembled from the same public pieces: 120 perturbations, seeded from
// the snippet, one batched forward, fitted on hard labels.
func explainLike(models *advisor.Models, code string, toks []string) []lime.Attribution {
	maxLen := models.EffectiveMaxLen()
	if len(toks) > maxLen {
		toks = toks[:maxLen]
	}
	sum := sha256.Sum256([]byte(code))
	ex := lime.New(int64(binary.BigEndian.Uint64(sum[:8])))
	ex.Samples = 120
	return ex.ExplainBatch(toks, func(batch [][]string) []float64 {
		ids := make([][]int, len(batch))
		for i, ts := range batch {
			ids[i] = models.Vocab.Encode(ts, maxLen)
		}
		labels := models.Directive.PredictBatch(ids)
		for i, p := range labels {
			labels[i] = 0
			if p > 0.5 {
				labels[i] = 1
			}
		}
		return labels
	}, 0)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
