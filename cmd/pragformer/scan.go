package main

// pragformer scan: point the advisor at a C source tree.
//
//	pragformer scan -dir src/ -model dir.gob -vocab vocab.txt -format sarif
//	pragformer scan -dir src/ -backend int8 -cache .pragformer-scan
//
// With no -model the demo directive classifier is trained at startup on a
// generated corpus (deterministic at a fixed -seed — the CI golden diff
// depends on it). -cache makes re-scans incremental: loops whose content
// hash is cached never reach the model. -stable strips run-dependent
// fields (probabilities, backend, root, cache counters), which is what the
// golden fixtures under examples/scantree are recorded as.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/obs"
	"pragformer/internal/scan"
)

func cmdScan(args []string) {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	var (
		dir        = fs.String("dir", ".", "root of the C source tree to scan")
		format     = fs.String("format", "json", "report format: json|sarif")
		outPath    = fs.String("out", "", "write the report here (default stdout)")
		modelPath  = fs.String("model", "", "directive model path (empty: self-train the demo classifier)")
		vocabPath  = fs.String("vocab", "", "vocabulary path (required with -model)")
		backend    = fs.String("backend", "", "compute backend: float64|int8 (empty serves float64)")
		workers    = fs.Int("workers", runtime.GOMAXPROCS(0), "parallel parse workers")
		batch      = fs.Int("batch", 16, "inference batch size")
		cachePath  = fs.String("cache", "", "persistent loop-hash cache file (incremental re-scans)")
		stable     = fs.Bool("stable", false, "omit run-dependent fields for golden comparisons")
		annotated  = fs.Bool("include-annotated", false, "also advise loops that already carry a pragma")
		seed       = fs.Int64("seed", 1, "demo training seed")
		demoTotal  = fs.Int("train-total", 1000, "demo mode: generated corpus size")
		demoEpochs = fs.Int("train-epochs", 5, "demo mode: training epochs")
		verbose    = fs.Bool("v", false, "print a per-stage timing summary (walk/parse/dedupe/infer/corroborate) to stderr")
	)
	_ = fs.Parse(args)
	if *format != "json" && *format != "sarif" {
		fatal(fmt.Errorf("unknown format %q (json|sarif)", *format))
	}

	modelID, err := scanModelID(*modelPath, *vocabPath, *seed, *demoTotal, *demoEpochs)
	if err != nil {
		fatal(err)
	}
	models, err := scanModels(*modelPath, *vocabPath, *seed, *demoTotal, *demoEpochs)
	if err != nil {
		fatal(err)
	}
	if models, err = models.WithBackend(*backend); err != nil {
		fatal(err)
	}

	// SIGINT cancels the scan; partial work is abandoned (the cache is
	// only rewritten by completed scans).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -v traces the whole run through the context: the pipeline records
	// its walk/parse/dedupe spans and the advisor's infer/corroborate
	// splits there. Tracing never touches the report, so goldens are
	// -v-invariant.
	var tr *obs.Trace
	if *verbose {
		tr = obs.NewTrace("")
		ctx = obs.WithTrace(ctx, tr)
	}

	cfg := scan.Config{
		Workers:          *workers,
		BatchSize:        *batch,
		CachePath:        *cachePath,
		Backend:          models.Directive.BackendName(),
		ModelID:          modelID,
		IncludeAnnotated: *annotated,
	}
	rep, err := scan.Dir(ctx, *dir, cfg, models)
	if err != nil {
		fatal(err)
	}

	c := rep.Counters
	fmt.Fprintf(os.Stderr, "scanned %d files (%d skipped): %d loops, %d unique, %d cached, %d inferred, %d disagreements on %s\n",
		c.Files, c.Skipped, c.Loops, c.Unique, c.CacheHits, c.Inferred, c.Disagreements, cfg.Backend)
	if tr != nil {
		fmt.Fprintf(os.Stderr, "stage timings (trace %s):\n", tr.ID)
		for _, st := range tr.Summary() {
			fmt.Fprintf(os.Stderr, "  %-12s %5d× %12s\n", st.Name, st.Count, st.Total.Round(time.Microsecond))
		}
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "  (%d spans dropped past the %d-span cap)\n", d, obs.MaxSpans)
		}
	}

	if *stable {
		rep = rep.Stable()
	}
	var body []byte
	if *format == "sarif" {
		body, err = rep.SARIF()
	} else {
		body, err = rep.JSON()
	}
	if err != nil {
		fatal(err)
	}
	if *outPath == "" {
		if _, err := os.Stdout.Write(body); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(*outPath, body, 0o644); err != nil {
		fatal(err)
	}
}

// scanModelID fingerprints the model bundle for the cache header: the
// content hash of the loaded artifacts, or the demo-training config
// (demo runs are deterministic, so equal config means equal models).
// Verdicts cached under one fingerprint are never replayed under another.
func scanModelID(model, vocab string, seed int64, total, epochs int) (string, error) {
	if model == "" {
		return fmt.Sprintf("demo:seed=%d,total=%d,epochs=%d", seed, total, epochs), nil
	}
	h := sha256.New()
	for _, p := range []string{model, vocab} {
		if p == "" {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%d|", len(data))
		h.Write(data)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// scanModels loads the classifier artifacts, or trains the demo bundle when
// no directive model is given.
func scanModels(model, vocab string, seed int64, total, epochs int) (*advisor.Models, error) {
	if model == "" {
		fmt.Fprintf(os.Stderr, "no -model given; training the demo classifier (corpus %d, %d epochs, seed %d)\n",
			total, epochs, seed)
		return advisor.TrainDemo(advisor.DemoConfig{
			Seed: seed, Total: total, Epochs: epochs,
			Progress: func(s string) { fmt.Fprintln(os.Stderr, " ", s) },
		})
	}
	if vocab == "" {
		return nil, fmt.Errorf("-vocab is required with -model")
	}
	return advisor.LoadModels(model, vocab)
}
