package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/obs"
	"pragformer/internal/scan"
)

// sizes are the input and warm-up sizes of a run. The smoke test shrinks
// them; every measured run uses fullSizes.
type sizes struct {
	demo         advisor.DemoConfig
	uniqueInputs int // corpus records generated for tier_suggest_unique
	uniqueWarm   int // warm-up requests per set-up, tier_suggest_unique
	hotLoops     int // distinct loops cycled by tier_suggest_hot
	hotWarm      int // warm-up passes over the hot loops per set-up
	treeRecords  int // corpus records per generated tree
	coldTrees    int // trees scan_cold cycles through
	warmTrees    int // trees scan_warm cycles through
	scanWarm     int // warm-up scans per set-up
	replayInputs int // inputs pushed through each layer by the replay
}

// fullSizes come from how much the per-input cost varies: one loop's
// suggest cost has a standard deviation of twice its mean (a disagreement
// pays for LIME, about 6 ms against 0.3 ms), so a cost averaged over fewer
// than about 20 000 distinct loops moves by more than a per cent or two
// from seed to seed. tier_suggest_unique and scan_cold therefore see about
// that many distinct loops in a run; the cached paths cost one parse and
// print per loop, vary far less, and need far fewer.
var fullSizes = sizes{
	demo:         advisor.DemoConfig{Seed: 1, Total: 600, Epochs: 3},
	uniqueInputs: 16000,
	uniqueWarm:   200,
	hotLoops:     512,
	hotWarm:      2,
	treeRecords:  60,
	coldTrees:    300,
	warmTrees:    22,
	scanWarm:     3,
	replayInputs: 512,
}

// inputs is what generation hands to set-up. Only the seed shapes it.
type inputs struct {
	loops []string     // canonical loop texts (tier workloads, replay)
	recs  []string     // raw corpus records (trees, replay)
	trees []string     // directories of the generated trees
	next  atomic.Int64 // tier_suggest_unique: next unsent loop, shared by warm-up and measurement
}

// subject is one set-up of the program under a workload.
type subject struct {
	models *advisor.Models // the float64 bundle as trained
	fitS   float64         // time TrainDemo took
	fleet  *fleet          // nil for the scan workloads
	op     opFunc
	// check runs after measurement, off the clock, and reports outputs
	// that are wrong.
	check func() error
	close func()
}

// workload names one row of the benchmark.
type workload struct {
	name  string
	conns int
	gen   func(seed int64, sz sizes, dir string) (*inputs, error)
	setUp func(sz sizes, in *inputs) (*subject, error)
}

var workloads = []workload{
	{"tier_suggest_unique", 2, genUnique, setUpUnique},
	{"tier_suggest_hot", 1, genHot, setUpHot},
	{"scan_cold", 1, genCold, setUpCold},
	{"scan_warm", 1, genWarm, setUpWarm},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// train fits the one model every run measures. The seed never reaches it,
// so the program under test is the same whatever the inputs.
func train(sz sizes) (*advisor.Models, float64, error) {
	t0 := time.Now()
	m, err := advisor.TrainDemo(sz.demo)
	return m, time.Since(t0).Seconds(), err
}

// ---- tier_suggest_unique ----

func genUnique(seed int64, sz sizes, _ string) (*inputs, error) {
	recs := records(seed, sz.uniqueInputs)
	return &inputs{loops: canonicalLoops(recs), recs: recs[:min(len(recs), sz.replayInputs)]}, nil
}

// sampleEvery is how often tier_suggest_unique keeps a response to compare
// with advisor.Models.Suggest after the run.
const sampleEvery = 50

func setUpUnique(sz sizes, in *inputs) (_ *subject, err error) {
	models, fitS, err := train(sz)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(models, 2, 2)
	if err != nil {
		return nil, err
	}
	defer closeOnError(f, &err)
	type sample struct {
		text string
		got  verdict
	}
	var (
		mu      sync.Mutex
		samples []sample
	)
	bufs := [2]bytes.Buffer{}
	url := f.front.URL + "/suggest"
	op := func(conn int, rec *recorder) (int, error) {
		i := int(in.next.Add(1)) - 1
		if i >= len(in.loops) {
			return 0, errExhausted
		}
		text, buf := in.loops[i], &bufs[conn]
		traceID := ""
		if rec != nil {
			traceID = obs.NewID()
		}
		t0 := time.Now()
		if err := f.post(url, codeBody(text), traceID, buf); err != nil {
			return 0, err
		}
		t1 := time.Now()
		var reply suggestReply
		var got verdict
		if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
			return 0, err
		}
		if len(reply.Results) != 1 {
			return 0, fmt.Errorf("want 1 result, got %d", len(reply.Results))
		}
		if err := json.Unmarshal(reply.Results[0], &got); err != nil {
			return 0, err
		}
		if got.Error != "" {
			return 0, fmt.Errorf("suggest: %s", got.Error)
		}
		if rec != nil && reply.Trace != nil {
			rec.adopt(rec.add("op", t0, t1, 0), t0, reply.Trace.Spans)
		}
		if i%sampleEvery == 0 {
			mu.Lock()
			samples = append(samples, sample{text, got})
			mu.Unlock()
		}
		return 1, nil
	}
	if err = warmUp(2, sz.uniqueWarm, op); err != nil {
		return nil, err
	}
	before, _, err := f.counters()
	if err != nil {
		return nil, err
	}
	check := func() error {
		for _, s := range samples {
			ref, err := models.Suggest(s.text)
			if err != nil {
				return err
			}
			if want := verdictOf(ref); s.got != want {
				return fmt.Errorf("response %+v differs from Models.Suggest %+v for %q", s.got, want, s.text)
			}
		}
		// Uniqueness guard: a store hit means a text was sent twice.
		after, _, err := f.counters()
		if err != nil {
			return err
		}
		if r := before.layerMetrics(after)["tier.store_hit_ratio"]; r > 0.01 {
			return fmt.Errorf("tier.store_hit_ratio %.4f > 0.01: the traffic was not unique", r)
		}
		return nil
	}
	return &subject{models: models, fitS: fitS, fleet: f, op: op, check: check, close: f.close}, nil
}

// closeOnError closes a fleet whose set-up did not finish.
func closeOnError(f *fleet, err *error) {
	if *err != nil {
		f.close()
	}
}

// warmUp runs a fixed number of ops, so that set-up time does not depend
// on a timer.
func warmUp(conns, ops int, op opFunc) error {
	var wg sync.WaitGroup
	errs := make([]error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < ops/conns; i++ {
				if _, err := op(c, nil); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// ---- tier_suggest_hot ----

func genHot(seed int64, sz sizes, _ string) (*inputs, error) {
	// A few spare records: two records can share a canonical loop.
	recs := records(seed, sz.hotLoops+sz.hotLoops/8+8)
	loops := canonicalLoops(recs)
	if len(loops) < sz.hotLoops {
		return nil, fmt.Errorf("only %d distinct loops for %d hot slots", len(loops), sz.hotLoops)
	}
	return &inputs{loops: loops[:sz.hotLoops], recs: recs[:min(len(recs), sz.replayInputs)]}, nil
}

// fillBatch is how many loops one set-up request carries into the store.
const fillBatch = 64

func setUpHot(sz sizes, in *inputs) (_ *subject, err error) {
	models, fitS, err := train(sz)
	if err != nil {
		return nil, err
	}
	f, err := newFleet(models, 2, 1)
	if err != nil {
		return nil, err
	}
	defer closeOnError(f, &err)
	url := f.front.URL + "/suggest"
	var buf bytes.Buffer
	// Fill the router's store: each loop goes through the whole path once.
	// The result bytes of that first answer are what every later answer
	// must equal.
	want := make([]json.RawMessage, 0, len(in.loops))
	for i := 0; i < len(in.loops); i += fillBatch {
		body, _ := json.Marshal(map[string][]string{"codes": in.loops[i:min(i+fillBatch, len(in.loops))]})
		if err = f.post(url, body, "", &buf); err != nil {
			return nil, err
		}
		var reply suggestReply
		if err = json.Unmarshal(buf.Bytes(), &reply); err != nil {
			return nil, err
		}
		want = append(want, reply.Results...)
	}
	if len(want) != len(in.loops) {
		return nil, fmt.Errorf("store fill: %d results for %d loops", len(want), len(in.loops))
	}
	bodies := make([][]byte, len(in.loops))
	whole := make([][]byte, len(in.loops)) // an untraced reply, byte for byte
	for i, text := range in.loops {
		bodies[i] = codeBody(text)
		whole[i] = append(append([]byte(`{"results":[`), want[i]...), "]}\n"...)
	}
	n := 0
	op := func(_ int, rec *recorder) (int, error) {
		i := n % len(bodies)
		n++
		if rec == nil {
			if err := f.post(url, bodies[i], "", &buf); err != nil {
				return 0, err
			}
			if !bytes.Equal(buf.Bytes(), whole[i]) {
				return 0, fmt.Errorf("hot reply %q differs from the set-up reply %q", buf.Bytes(), whole[i])
			}
			return 1, nil
		}
		t0 := time.Now()
		if err := f.post(url, bodies[i], obs.NewID(), &buf); err != nil {
			return 0, err
		}
		t1 := time.Now()
		var reply suggestReply
		if err := json.Unmarshal(buf.Bytes(), &reply); err != nil {
			return 0, err
		}
		if len(reply.Results) != 1 || !bytes.Equal(reply.Results[0], want[i]) {
			return 0, fmt.Errorf("hot reply %q differs from the set-up reply %q", buf.Bytes(), want[i])
		}
		if reply.Trace != nil {
			rec.adopt(rec.add("op", t0, t1, 0), t0, reply.Trace.Spans)
		}
		return 1, nil
	}
	if err = warmUp(1, sz.hotWarm*len(bodies), op); err != nil {
		return nil, err
	}
	before, _, err := f.counters()
	if err != nil {
		return nil, err
	}
	check := func() error {
		after, _, err := f.counters()
		if err != nil {
			return err
		}
		if d := after.forwards - before.forwards; d != 0 {
			return fmt.Errorf("pf_forwards_total moved by %v on the hot path", d)
		}
		return nil
	}
	return &subject{models: models, fitS: fitS, fleet: f, op: op, check: check, close: f.close}, nil
}

// ---- scan_cold and scan_warm ----

func genTrees(seed int64, sz sizes, dir string, n int) (*inputs, error) {
	recs := records(seed, n*sz.treeRecords)
	trees, err := writeTrees(filepath.Join(dir, "trees"), recs, sz.treeRecords)
	if err != nil {
		return nil, err
	}
	replay := recs[:min(len(recs), sz.replayInputs)]
	return &inputs{loops: canonicalLoops(replay), recs: replay, trees: trees}, nil
}

func genCold(seed int64, sz sizes, dir string) (*inputs, error) {
	return genTrees(seed, sz, dir, sz.coldTrees)
}

func genWarm(seed int64, sz sizes, dir string) (*inputs, error) {
	return genTrees(seed, sz, dir, sz.warmTrees)
}

// scanConfig is the configuration both scan workloads use; store is the
// only thing that differs.
func scanConfig(store scan.VerdictStore) scan.Config {
	return scan.Config{Workers: 2, BatchSize: 16, Store: store, Backend: core.BackendInt8, ModelID: "bench"}
}

// keepEvery is how often a scan workload keeps a report to check after
// the run; maxKept bounds how many.
const (
	keepEvery = 8
	maxKept   = 12
)

type keptReport struct {
	tree int
	rep  *scan.Report
}

// scanOp builds the op of both scan workloads: scan the next tree, render
// both report formats, check the counters. newStore gives the store for
// one op.
func scanOp(q *advisor.Models, trees []string, newStore func() scan.VerdictStore, cold bool, kept *[]keptReport) opFunc {
	n := 0
	return func(_ int, rec *recorder) (int, error) {
		k := n % len(trees)
		n++
		ctx := context.Background()
		var tr *obs.Trace
		if rec != nil {
			tr = obs.NewTrace("")
			ctx = obs.WithTrace(ctx, tr)
		}
		t0 := time.Now()
		rep, err := scan.Dir(ctx, trees[k], scanConfig(newStore()), q)
		if err != nil {
			return 0, err
		}
		t1 := time.Now()
		js, err := rep.JSON()
		if err != nil {
			return 0, err
		}
		t2 := time.Now()
		sarif, err := rep.SARIF()
		if err != nil {
			return 0, err
		}
		t3 := time.Now()
		if rec != nil {
			id := rec.add("op", t0, t3, 0)
			rec.adopt(id, t0, tr.Wire().Spans)
			rec.add("report.json", t1, t2, id)
			rec.add("report.sarif", t2, t3, id)
		}
		c := rep.Counters
		switch {
		case len(js) == 0 || len(sarif) == 0:
			return 0, fmt.Errorf("empty report")
		case c.Unique == 0:
			return 0, fmt.Errorf("tree %d: no loops found", k)
		case cold && (c.Inferred != c.Unique || c.CacheHits != 0):
			return 0, fmt.Errorf("cold scan of tree %d: inferred %d, cache hits %d, unique %d", k, c.Inferred, c.CacheHits, c.Unique)
		case !cold && (c.Inferred != 0 || c.CacheHits != c.Unique):
			return 0, fmt.Errorf("warm scan of tree %d: inferred %d, cache hits %d, unique %d", k, c.Inferred, c.CacheHits, c.Unique)
		}
		for i := range rep.Loops {
			if l := &rep.Loops[i]; l.Error != "" || l.Suggestion == nil {
				return 0, fmt.Errorf("tree %d loop %s: no verdict (%s)", k, l.Hash[:8], l.Error)
			}
		}
		if n%keepEvery == 0 && len(*kept) < maxKept {
			*kept = append(*kept, keptReport{k, rep})
		}
		return c.Unique, nil
	}
}

// stableHash is the sha-256 of the report with every run-dependent field
// cleared: equal for a cold and a warm scan of one tree.
func stableHash(rep *scan.Report) ([32]byte, error) {
	js, err := rep.Stable().JSON()
	return sha256.Sum256(js), err
}

// checkKept compares each kept report with a reference for its tree: the
// stable bytes must be equal, and the first loop's verdict must be what
// advisor.Models.Suggest gives for the snippet alone.
func checkKept(q *advisor.Models, kept []keptReport, reference func(tree int) (*scan.Report, error)) error {
	for _, kr := range kept {
		ref, err := reference(kr.tree)
		if err != nil {
			return err
		}
		got, err := stableHash(kr.rep)
		if err != nil {
			return err
		}
		want, err := stableHash(ref)
		if err != nil {
			return err
		}
		if got != want {
			return fmt.Errorf("tree %d: stable report %x differs from the reference %x", kr.tree, got[:6], want[:6])
		}
		l := kr.rep.Loops[0]
		s, err := q.Suggest(l.Snippet)
		if err != nil {
			return err
		}
		want2 := verdictOf(s)
		if got2 := (verdict{Parallelize: l.Suggestion.Parallelize, Directive: l.Suggestion.Directive, Tier: l.Suggestion.Tier}); got2 != want2 {
			return fmt.Errorf("tree %d loop %s: report says %+v, Models.Suggest says %+v", kr.tree, l.Hash[:8], got2, want2)
		}
	}
	return nil
}

func setUpScan(sz sizes, in *inputs, cold bool) (*subject, error) {
	models, fitS, err := train(sz)
	if err != nil {
		return nil, err
	}
	q, err := models.WithBackend(core.BackendInt8)
	if err != nil {
		return nil, err
	}
	coldScan := func(k int, store scan.VerdictStore) (*scan.Report, error) {
		return scan.Dir(context.Background(), in.trees[k], scanConfig(store), q)
	}
	var kept []keptReport
	s := &subject{models: models, fitS: fitS, close: func() {}}
	if cold {
		s.op = scanOp(q, in.trees, func() scan.VerdictStore { return scan.NewMemStore() }, true, &kept)
		s.check = func() error {
			return checkKept(q, kept, func(k int) (*scan.Report, error) { return coldScan(k, scan.NewMemStore()) })
		}
	} else {
		// One store for all trees, as a CI server keeps one cache; one cold
		// scan per tree fills it.
		store := scan.NewMemStore()
		fills := make([]*scan.Report, len(in.trees))
		for k := range in.trees {
			if fills[k], err = coldScan(k, store); err != nil {
				return nil, err
			}
		}
		s.op = scanOp(q, in.trees, func() scan.VerdictStore { return store }, false, &kept)
		s.check = func() error {
			return checkKept(q, kept, func(k int) (*scan.Report, error) { return fills[k], nil })
		}
	}
	if err := warmUp(1, sz.scanWarm, s.op); err != nil {
		return nil, err
	}
	kept = kept[:0]
	return s, nil
}

func setUpCold(sz sizes, in *inputs) (*subject, error) { return setUpScan(sz, in, true) }
func setUpWarm(sz sizes, in *inputs) (*subject, error) { return setUpScan(sz, in, false) }
