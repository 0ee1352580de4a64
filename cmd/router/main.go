// Command router fronts a fleet of `serve` replicas as one endpoint: the
// sharded serving tier.
//
// Requests route by loop content hash — the same sha-256 canonical-print
// hash the scan cache uses — over a consistent-hash ring with bounded-load
// spill, so each unique loop keeps hitting the replica whose caches
// already hold it, and a hot key overflows to its deterministic fallback
// replicas instead of queueing. Admission is layered: per-client token
// buckets first, then per-replica in-flight caps; saturation answers 429
// with Retry-After rather than queueing without bound. /suggest and /scan
// verdicts fill a shared read-through store keyed by the loop's content
// hash within the current model generation, so a loop any replica has
// judged is answered by the router itself, fleet-wide.
//
// POST /reload rolls the fleet one replica at a time: drain (the ring
// stops routing there, in-flight requests finish), reload, health-gate on
// /readyz reporting the bumped generation, readmit. SIGHUP triggers the
// same roll. Unresponsive replicas are ejected after consecutive failures
// and re-probed with backoff until they answer again.
//
// Endpoints: POST /predict, /suggest, /scan, /reload; GET /healthz,
// /readyz, /statz, /metrics — the same surface as one replica. /statz and
// /metrics render the router's own series, including each replica's
// state, generation, in-flight forwards and failed /readyz probes.
//
// Example:
//
//	serve -addr :8081 & serve -addr :8082 &
//	router -addr :8080 -replicas http://localhost:8081,http://localhost:8082
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"pragformer/internal/obs"
	"pragformer/internal/tier"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		replicas = flag.String("replicas", "", "comma-separated replica base URLs (required)")
		maxInfl  = flag.Int("max-inflight", 64, "hard per-replica in-flight cap before shedding")
		rate     = flag.Float64("rate", 0, "per-client requests/sec admitted (0 disables rate limiting)")
		burst    = flag.Int("burst", 16, "per-client token-bucket burst")
		probeInt = flag.Duration("probe-interval", 2*time.Second, "replica health probe interval")
		drainTO  = flag.Duration("drain-timeout", 10*time.Second, "per-replica drain/readiness deadline during rolling reload")
		failThr  = flag.Int("fail-threshold", 3, "consecutive failures before ejecting a replica")
		backend  = flag.String("backend", "", "verdict-store namespace backend (empty adopts the fleet's reported backend)")
		modelID  = flag.String("model-id", "", "model id that /healthz reports; a label only, the verdict store is keyed by snippet hash")
		trace    = flag.Bool("trace", false, "trace every request (spans in responses + one structured log line each); without it only requests carrying X-PF-Trace are traced")
		pprofOn  = flag.Bool("pprof", false, "expose /debug/pprof profiling endpoints (off by default)")
	)
	flag.Parse()

	names := splitReplicas(*replicas)
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "router: -replicas is required (comma-separated base URLs)")
		os.Exit(1)
	}

	var logger *slog.Logger
	if *trace {
		logger = slog.Default()
	}
	rt, err := tier.New(tier.Config{
		Replicas: names, MaxInFlight: *maxInfl, FailThreshold: *failThr,
		ProbeInterval: *probeInt, DrainTimeout: *drainTO,
		RatePerSec: *rate, Burst: *burst,
		Backend: *backend, ModelID: *modelID, Logger: logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "router:", err)
		os.Exit(1)
	}
	defer rt.Close()

	handler := rt.Handler()
	if *pprofOn {
		handler = obs.WithPprof(handler)
	}
	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("routing on %s over %d replicas (max in-flight %d)\n", *addr, len(names), *maxInfl)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
loop:
	for {
		select {
		case err := <-errCh:
			if !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "router:", err)
				os.Exit(1)
			}
			break loop
		case s := <-sig:
			if s == syscall.SIGHUP {
				fmt.Println("SIGHUP: rolling reload...")
				rollingReload(rt)
				continue
			}
			fmt.Printf("\n%s: shutting down...\n", s)
			ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
			if err := srv.Shutdown(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "router: shutdown:", err)
			}
			cancel()
			break loop
		}
	}
}

// splitReplicas parses the -replicas list, trimming blanks and trailing
// slashes (replica URLs are concatenated with endpoint paths).
func splitReplicas(s string) []string {
	var out []string
	for _, r := range strings.Split(s, ",") {
		r = strings.TrimRight(strings.TrimSpace(r), "/")
		if r != "" {
			out = append(out, r)
		}
	}
	return out
}

// rollingReload drives the same handler POST /reload runs, so SIGHUP and
// the HTTP path share one code path and one serialization lock.
func rollingReload(rt *tier.Router) {
	req := httptest.NewRequest(http.MethodPost, "/reload", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	fmt.Printf("reload: %s %s", rec.Result().Status, rec.Body.String())
}
