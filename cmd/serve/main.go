// Command serve runs the PragFormer advisor as an HTTP JSON service over
// the micro-batching inference engine in internal/serve.
//
// The directive classifier is either loaded from the float model and
// vocabulary files written by `pragformer train` (-directive plus -vocab)
// or, when -directive is empty, trained at startup on a generated Open-OMP
// corpus — the zero-setup demo mode. Clauses come from the dependence
// analysis, so no clause classifier is served.
//
// -backend selects the compute backend: float64 (the training-grade
// reference, and what empty means) or int8 (quantizes the float model at
// load time and on every hot reload). The active backend and model
// generation are reported by GET /healthz.
//
// When models come from files, a retrained artifact can be shipped to the
// running server with zero downtime: POST /reload (or send SIGHUP) re-reads
// the model paths and hot-swaps the bundle without dropping in-flight or
// queued requests. Combined with the atomic artifact writes of `pragformer
// train`, the server never observes a torn model file.
//
// Endpoints:
//
//	POST /predict {"code": "..."} | {"codes": [...]} | {"ids": [[...]]}
//	POST /suggest {"code": "..."} | {"codes": [...]}
//	POST /scan    {"files": [{"path": "a.c", "source": "..."}], "format": "json"|"sarif"}
//	POST /reload  (hot-swap the model from the -directive/-vocab paths)
//	GET  /healthz (liveness, backend and model generation)
//	GET  /readyz  (readiness: 503 while draining or mid-reload — what the router probes)
//	GET  /statz   (every /metrics series as one JSON object)
//	GET  /metrics (Prometheus text)
//
// On SIGTERM/SIGINT the server flips /readyz to draining, then shuts down
// gracefully under the -drain-timeout deadline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/obs"
	"pragformer/internal/serve"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		directive = flag.String("directive", "", "directive model path (empty: self-train a demo model)")
		vocabPath = flag.String("vocab", "", "vocabulary path (required with -directive)")
		maxBatch  = flag.Int("max-batch", 16, "max coalesced batch size")
		replicas  = flag.Int("replicas", 1, "model replicas (concurrent batches in flight)")
		backend   = flag.String("backend", "", "compute backend: float64|int8 (empty serves float64; int8 quantizes the float model at load and on every reload)")
		cacheSize = flag.Int("cache", 1024, "LRU result cache entries (negative disables)")
		shed      = flag.Bool("shed", false, "shed load with 429 + Retry-After when the queue saturates instead of blocking")
		drainTO   = flag.Duration("drain-timeout", 5*time.Second, "graceful shutdown deadline for in-flight requests")
		seed      = flag.Int64("seed", 1, "demo mode: seed for corpus generation, splits and model init")
		total     = flag.Int("train-total", 1000, "demo mode: generated corpus size")
		epochs    = flag.Int("train-epochs", 5, "demo mode: training epochs")
		trace     = flag.Bool("trace", false, "trace every request (spans in responses + one structured log line each); without it only requests carrying X-PF-Trace are traced")
		pprofOn   = flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints (off by default)")
	)
	flag.Parse()

	models, err := buildModels(*directive, *vocabPath, *seed, *total, *epochs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}

	// File-backed models can be hot-reloaded (POST /reload, SIGHUP) by
	// re-reading the same paths; demo-trained models have no source to
	// reload from.
	var source func() (*advisor.Models, error)
	if *directive != "" {
		source = func() (*advisor.Models, error) { return advisor.LoadModels(*directive, *vocabPath) }
	}

	var logger *slog.Logger
	if *trace {
		logger = slog.Default()
	}
	engine, err := serve.New(models, serve.Config{
		MaxBatch: *maxBatch, Replicas: *replicas,
		CacheSize: *cacheSize, Shed: *shed,
		Source: source, Backend: *backend, Logger: logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "serve:", err)
		os.Exit(1)
	}
	defer engine.Close()

	handler := engine.Handler()
	if *pprofOn {
		handler = obs.WithPprof(handler)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("serving on %s (backend %s, max-batch %d, replicas %d, cache %d)\n",
		*addr, engine.Stats().Backend, *maxBatch, *replicas, *cacheSize)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			if !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "serve:", err)
				os.Exit(1)
			}
			break loop
		case s := <-sig:
			if s == syscall.SIGHUP {
				if err := engine.ReloadFromSource(); err != nil {
					fmt.Fprintln(os.Stderr, "serve: reload:", err)
				} else {
					fmt.Println("SIGHUP: models hot-reloaded")
				}
				continue
			}
			// Flip readiness first so a health-gated router stops routing
			// here, then drain under the -drain-timeout deadline: a stuck
			// batch cannot hang shutdown forever.
			fmt.Printf("\n%s: draining (deadline %s)...\n", s, *drainTO)
			engine.SetDraining(true)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "serve: shutdown:", err)
			}
			break loop
		}
	}
	st := engine.Stats()
	fmt.Printf("served %d predicts (%.1f avg batch, %d cache hits), %d suggests (%.1f avg batch, %d cache hits)\n",
		st.Predict.Requests, st.Predict.AvgBatch(), st.Predict.CacheHits,
		st.Suggest.Requests, st.Suggest.AvgBatch(), st.Suggest.CacheHits)
}

// buildModels loads the classifier files, or trains the demo model when no
// directive path is given.
func buildModels(directive, vocabPath string, seed int64, total, epochs int) (*advisor.Models, error) {
	if directive == "" {
		return trainDemo(seed, total, epochs)
	}
	if vocabPath == "" {
		return nil, fmt.Errorf("-vocab is required with -directive")
	}
	return advisor.LoadModels(directive, vocabPath)
}

// trainDemo fits the directive classifier on a generated corpus through
// the shared advisor.TrainDemo recipe (also behind `pragformer scan`'s demo
// mode).
func trainDemo(seed int64, total, epochs int) (*advisor.Models, error) {
	fmt.Printf("no -directive model given; training the demo classifier (corpus %d, %d epochs)\n", total, epochs)
	return advisor.TrainDemo(advisor.DemoConfig{
		Seed: seed, Total: total, Epochs: epochs,
		Progress: func(s string) { fmt.Println(" ", s) },
	})
}
