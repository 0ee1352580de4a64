// Package serve is the inference serving layer: a micro-batching engine
// over the batch-first advisor/core forward paths, plus the HTTP JSON API
// in http.go that cmd/serve exposes.
//
// Concurrent callers enqueue requests on one queue per request kind, and
// Replicas workers drain it: a worker takes the first queued request
// itself, plus whatever else is already queued, up to MaxBatch, without
// waiting for more. A request that finds a worker idle thus leaves at once,
// while requests that queue behind busy workers leave together as one
// batch, so N near-simultaneous callers cost one batched forward instead of
// N single ones. The workers share one set of weights: inference only
// reads them (the core.Backend contract), so a replica is a goroutine, not
// a copy. An LRU cache keyed by the encoded id sequence (predictions) or
// the raw snippet (suggestions) short-circuits repeats before they reach
// the queue.
//
// The engine also supports hot model reload (Reload / POST /reload /
// SIGHUP in cmd/serve): a freshly loaded artifact's run functions are built
// off-path, then atomically swapped in. In-flight batches finish on the
// model they started with, queued and future requests run on the new one,
// and the result caches roll to a new generation — no request is dropped
// and no stale result survives the swap.
package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/obs"
	"pragformer/internal/scan"
	"pragformer/internal/tokenize"
)

// ErrClosed is returned by engine calls after Close.
var ErrClosed = errors.New("serve: engine closed")

// errEmptyIDs refuses an id sequence with no [CLS] row to classify.
var errEmptyIDs = errors.New("empty id sequence")

// ErrSaturated is returned (in shed mode) when the batcher queue is full:
// the engine is refusing work it could only serve with collapsed latency.
// HTTP layers translate it into 429 + Retry-After.
var ErrSaturated = errors.New("serve: queue saturated")

// Config tunes the engine. Zero values take the documented defaults.
type Config struct {
	// MaxBatch is the largest coalesced batch (default 16).
	MaxBatch int
	// Replicas is how many workers batches fan out across, i.e. how many
	// batches can be in flight at once (default 1). All of them read the
	// caller's model; none copies it.
	Replicas int
	// CacheSize is the per-path LRU capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// Shed makes a full queue return ErrSaturated instead of blocking the
	// caller — load shedding for the HTTP layer (429 + Retry-After) and
	// the tier router's admission signal. Off by default: library callers
	// keep the backpressure-by-blocking contract.
	Shed bool
	// Backend selects the compute backend every served classifier runs on:
	// core.BackendFloat64, core.BackendInt8, or empty to serve bundles as
	// loaded. The selection is per engine and sticky: a hot reload converts
	// the freshly loaded bundle to the same backend before the swap, so a
	// float artifact shipped to an int8 engine is quantized on every
	// (re)load. Surfaced by Stats and GET /healthz.
	Backend string
	// Source, when set, produces a fresh model bundle for
	// ReloadFromSource — the POST /reload and SIGHUP path. It runs off
	// the request path (loading artifacts or retraining may be slow);
	// only the final swap is atomic. Nil disables source-driven reloads;
	// Reload with an explicit bundle always works.
	Source func() (*advisor.Models, error)
	// Logger, when set, makes the HTTP layer trace every request, not just
	// those carrying the X-PF-Trace header, and receives one structured line
	// per request.
	Logger *slog.Logger
}

func (c *Config) fillDefaults() {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.Replicas <= 0 {
		c.Replicas = 1
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
}

// PathStats counts one request kind's traffic: the same registry series
// GET /metrics and GET /statz render, read for in-process callers.
// QueueDepth and InFlight are point-in-time (everything else is
// monotonic).
type PathStats struct {
	Requests  uint64 // calls accepted
	CacheHits uint64 // answered from the LRU without queueing
	Batches   uint64 // coalesced batches executed
	Items     uint64 // requests carried by those batches
	Sheds     uint64 // requests refused with ErrSaturated (shed mode)
	// DeadlineExceeded counts requests dropped because their client
	// deadline expired before the forward ran — at admission or while
	// waiting in the batch queue.
	DeadlineExceeded uint64
	// QueueDepth is the number of requests waiting in the batcher queue
	// right now; InFlight counts admitted requests not yet answered
	// (queued or inside a running batch).
	QueueDepth int
	InFlight   int
}

// AvgBatch is the mean coalesced batch size.
func (s PathStats) AvgBatch() float64 {
	if s.Batches == 0 {
		return 0
	}
	return float64(s.Items) / float64(s.Batches)
}

// Stats is a point-in-time snapshot of engine counters.
type Stats struct {
	// Backend names the compute backend of the served directive classifier
	// ("float64" | "int8").
	Backend string
	// Generation is the model generation currently serving: 0 for the
	// bundle the engine started with, bumped by every completed reload.
	Generation uint64
	// Draining reports the engine is being taken out of rotation (set by
	// SetDraining ahead of process shutdown); Reloading reports a hot swap
	// is in progress. Both gate GET /readyz — the router routes neither
	// new traffic nor health-probe credit to a draining replica.
	Draining  bool
	Reloading bool
	// Reloads counts completed hot model swaps.
	Reloads uint64
	Predict PathStats
	Suggest PathStats
}

// Engine is the serving front end over one advisor.Models bundle. The
// bundle is held behind an atomic pointer so Reload can swap in a
// retrained model without pausing traffic.
type Engine struct {
	models  atomic.Pointer[advisor.Models]
	cfg     Config
	reg     *obs.Registry
	predict *batcher[[]int, float64]
	// suggest carries the /suggest wire item — a suggestion or a
	// per-snippet error; both are cached (errors are deterministic).
	suggest *batcher[string, scan.Verdict]

	reloadMu sync.Mutex   // serializes Reload swaps
	reloads  *obs.Counter // pf_reloads_total

	// draining marks the engine as being taken out of rotation (process
	// shutdown imminent); reloading marks a hot swap in progress. Both are
	// surfaced by Stats and gate GET /readyz.
	draining  atomic.Bool
	reloading atomic.Bool

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

// New builds and starts an engine. The directive classifier and vocabulary
// are required, exactly as for advisor.Suggest.
func New(models *advisor.Models, cfg Config) (*Engine, error) {
	if err := validateModels(models); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	models, err := models.WithBackend(cfg.Backend)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	e := &Engine{cfg: cfg, reg: obs.NewRegistry(), done: make(chan struct{})}
	e.models.Store(models)

	predictRun, suggestRun := e.buildRuns(models)
	e.predict = newBatcher(e.reg, "predict", cfg, predictRun, e.done, &e.wg)
	e.suggest = newBatcher(e.reg, "suggest", cfg, suggestRun, e.done, &e.wg)
	e.reloads = e.reg.Counter("pf_reloads_total", "Completed hot model swaps.", nil)
	e.reg.GaugeFunc("pf_model_generation", "Model generation currently serving.", nil,
		func() float64 { return float64(e.predict.cache.Gen()) })
	e.weightGauge(models)
	return e, nil
}

// weightGauge registers pf_model_weight_bytes for a bundle's directive
// classifier (get-or-create). The series reads whichever bundle is serving
// at scrape time, so a reload re-points it — to 0 if the classifier has
// moved to another backend, for which the reload registers a new series.
func (e *Engine) weightGauge(models *advisor.Models) {
	backend := models.Directive.BackendName()
	e.reg.GaugeFunc("pf_model_weight_bytes", "Bytes of weights the serving classifier's inference reads.",
		obs.Labels{"classifier": "directive", "backend": backend}, func() float64 {
			if cur := e.models.Load().Directive; cur.BackendName() == backend {
				return float64(core.WeightBytes(cur))
			}
			return 0
		})
}

// Metrics exposes the engine's telemetry registry (the one GET /metrics
// renders) so embedding binaries can add their own series. Every engine
// has its own, so embedded engines and tests never cross-wire series.
func (e *Engine) Metrics() *obs.Registry { return e.reg }

func validateModels(models *advisor.Models) error {
	if models == nil || models.Directive == nil || models.Vocab == nil {
		return fmt.Errorf("serve: directive model and vocabulary are required")
	}
	return nil
}

// buildRuns constructs one generation's run function per path over a model
// bundle, before anything is swapped. It copies nothing: every replica of
// either path reads the bundle's one set of weights.
func (e *Engine) buildRuns(models *advisor.Models) (runFunc[[]int, float64], runFunc[string, scan.Verdict]) {
	directive := models.Directive
	vocab := directive.VocabSize()
	predictRun := func(batch [][]int) ([]float64, []obs.Stage) {
		// Requests are validated against the bundle that was current
		// when they arrived; a batch drained just after a reload may
		// carry ids the new vocabulary cannot embed. Clamp them to
		// [UNK] instead of letting the embedding lookup panic a
		// worker mid-swap.
		sanitizeIDs(batch, vocab)
		t0 := time.Now()
		out := directive.PredictBatch(batch)
		return out, []obs.Stage{{Name: "infer", Dur: time.Since(t0)}}
	}

	// Suggest workers share the Models the same way — the workers exist to
	// let batches overlap. The per-batch stage hook splits the
	// advisor's time into infer vs corroborate for the request trace and
	// the pf_stage_duration_seconds histogram, whose two series are resolved
	// here, once: a registry lookup per stage per batch would build a label
	// map and string each time. The verdict is flattened to its report form
	// here, once, where it is computed: the cache, /suggest and /scan all
	// carry that form.
	stageHists := map[string]*obs.Histogram{}
	for _, stage := range []string{"infer", "corroborate"} {
		stageHists[stage] = e.reg.Histogram("pf_stage_duration_seconds",
			"Advisor pipeline stage time per batch, in seconds.", obs.Labels{"stage": stage}, nil)
	}
	suggestRun := func(codes []string) ([]scan.Verdict, []obs.Stage) {
		var stages []obs.Stage
		items, err := models.SuggestBatchStaged(codes, func(stage string, d time.Duration) {
			stages = append(stages, obs.Stage{Name: stage, Dur: d})
			stageHists[stage].Observe(d.Seconds())
		})
		out := make([]scan.Verdict, len(codes))
		if err != nil {
			for i := range out {
				out[i].Error = err.Error()
			}
			return out, stages
		}
		for i, it := range items {
			if it.Err != nil {
				out[i].Error = it.Err.Error()
				continue
			}
			out[i].Suggestion = scan.FromAdvisor(it.Suggestion)
		}
		return out, stages
	}
	return predictRun, suggestRun
}

// sanitizeIDs clamps out-of-vocabulary ids to [UNK] in place.
func sanitizeIDs(batch [][]int, vocab int) {
	for _, ids := range batch {
		for i, id := range ids {
			if id < 0 || id >= vocab {
				ids[i] = tokenize.UNK
			}
		}
	}
}

// Reload atomically swaps the served model bundle: the run functions for
// the new bundle are built first (off-path), then the bundle pointer and
// both batchers' runs are published and the result caches rolled. In-flight
// and queued requests are never dropped — batches already handed to a
// worker finish on the generation they loaded, everything later runs on
// the new models.
func (e *Engine) Reload(models *advisor.Models) error {
	if err := validateModels(models); err != nil {
		return err
	}
	// The engine's backend selection outlives any one bundle: convert the
	// incoming models (quantizing a float classifier on an int8 engine)
	// before anything is swapped.
	models, err := models.WithBackend(e.cfg.Backend)
	if err != nil {
		return fmt.Errorf("serve: reload: %w", err)
	}
	e.reloadMu.Lock()
	defer e.reloadMu.Unlock()
	select {
	case <-e.done:
		return ErrClosed
	default:
	}
	// Readiness flips for the duration of the swap so a health-gated
	// rollout (the tier router's rolling reload) can hold new traffic
	// until the fresh generation is serving.
	e.reloading.Store(true)
	defer e.reloading.Store(false)
	predictRun, suggestRun := e.buildRuns(models)
	e.models.Store(models)
	e.predict.setRun(predictRun)
	e.suggest.setRun(suggestRun)
	e.weightGauge(models)
	e.reloads.Inc()
	return nil
}

// SetDraining marks (or unmarks) the engine as draining: GET /readyz
// reports not-ready so routers stop sending new traffic, while in-flight
// and queued requests keep being served. cmd/serve sets it on SIGTERM
// before the HTTP server's graceful shutdown begins.
func (e *Engine) SetDraining(v bool) { e.draining.Store(v) }

// ReloadFromSource reloads from cfg.Source — the POST /reload and SIGHUP
// entry point.
func (e *Engine) ReloadFromSource() error {
	if e.cfg.Source == nil {
		return fmt.Errorf("serve: no reload source configured")
	}
	models, err := e.cfg.Source()
	if err != nil {
		return fmt.Errorf("serve: reload source: %w", err)
	}
	return e.Reload(models)
}

// idKey packs an id sequence into a compact string cache key.
func idKey(ids []int) string {
	buf := make([]byte, 0, 2*len(ids))
	var tmp [binary.MaxVarintLen64]byte
	for _, id := range ids {
		n := binary.PutUvarint(tmp[:], uint64(id))
		buf = append(buf, tmp[:n]...)
	}
	return string(buf)
}

// Predict returns the directive classifier's positive probability for an
// encoded id sequence, coalescing concurrent callers into batched
// forwards. ids is copied before it is enqueued: a caller that abandons a
// queued request (ctx cancellation) may freely reuse its slice even though
// a worker can still drain and cache the request later. An empty sequence
// is refused here: the forward panics on one, inside a batch worker, which
// would take the process and every queued request down with it.
func (e *Engine) Predict(ctx context.Context, ids []int) (float64, error) {
	if len(ids) == 0 {
		return 0, errEmptyIDs
	}
	owned := make([]int, len(ids))
	copy(owned, ids)
	return e.predict.do(ctx, owned, idKey(owned))
}

// Suggest runs the full advisor pipeline for one snippet, coalescing
// concurrent callers into SuggestBatch calls, and returns the verdict in
// its flat report form. The Suggestion is a copy of the one the engine
// holds, but its evidence slices are shared with other callers (cache
// hits) and must not be mutated.
func (e *Engine) Suggest(ctx context.Context, code string) (*scan.Suggestion, error) {
	v, err := e.suggest.do(ctx, code, code)
	if err != nil {
		return nil, err
	}
	if v.Error != "" {
		return nil, errors.New(v.Error)
	}
	return &v.Suggestion, nil
}

// Models exposes the currently served bundle (the HTTP layer needs the
// vocabulary). The pointer may be superseded by a concurrent Reload; one
// request sees one coherent bundle.
func (e *Engine) Models() *advisor.Models { return e.models.Load() }

// Stats snapshots the engine counters, the serving model generation, and
// the compute backend name.
func (e *Engine) Stats() Stats {
	return Stats{
		Predict:    e.predict.stats(),
		Suggest:    e.suggest.stats(),
		Reloads:    e.reloads.Value(),
		Generation: e.predict.cache.Gen(),
		Backend:    e.models.Load().Directive.BackendName(),
		Draining:   e.draining.Load(),
		Reloading:  e.reloading.Load(),
	}
}

// Close stops the workers and waits for them to exit.
// Pending calls return ErrClosed; Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() { close(e.done) })
	e.wg.Wait()
}
