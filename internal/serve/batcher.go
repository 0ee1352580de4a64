package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"pragformer/internal/lru"
	"pragformer/internal/obs"
)

// The batcher is the engine's composable coalescing unit: Replicas workers
// take calls of one kind off one queue in batches and execute them with the
// current run function, and an LRU short-circuits repeats. The serving
// tier's router composes the same signals the batcher exports — queue
// depth, in-flight count, shed counter — into fleet-wide admission control.

// call is one queued request. ctx and enqueued let the worker shed calls
// whose deadline expired while they sat in the queue — an expired call's
// caller has already returned via ctx.Done, so running it would only burn
// a forward. tr is the request trace (nil when untraced).
type call[P any, R any] struct {
	payload  P
	key      string
	res      chan R // buffered(1): the worker never blocks delivering
	ctx      context.Context
	enqueued time.Time
	tr       *obs.Trace
}

// runFunc is one model generation's batch function, shared by every worker:
// the replicas read one set of weights. A hot reload publishes a fresh one
// through the batcher's atomic pointer; workers load it once per batch, so
// an in-flight batch finishes on the model it started with while the next
// batch picks up the swap. It returns its results plus coarse stage timings
// (the advisor's infer/corroborate split) that the worker folds into each
// call's trace.
type runFunc[P any, R any] func([]P) ([]R, []obs.Stage)

// batcher coalesces calls of one kind and fans batches across workers.
type batcher[P any, R any] struct {
	queue    chan *call[P, R]
	cache    *lru.Cache[R]
	run      atomic.Pointer[runFunc[P, R]]
	maxBatch int
	shed     bool
	done     chan struct{}
	wg       *sync.WaitGroup
	inflight atomic.Int64

	// The registry series the batcher records into, and the only place its
	// counts live: Stats, /statz and /metrics all read them.
	queueWait *obs.Histogram // pf_batch_queue_wait_seconds
	compute   *obs.Histogram // pf_batch_compute_seconds
	requests  *obs.Counter   // pf_batcher_requests_total
	cacheHits *obs.Counter   // pf_cache_hits_total
	batches   *obs.Counter   // pf_batches_total
	items     *obs.Counter   // pf_batch_items_total
	sheds     *obs.Counter   // pf_sheds_total
	deadline  *obs.Counter   // pf_deadline_exceeded_total
}

// newBatcher starts cfg.Replicas workers over run; they exit when done
// closes. cfg must have its defaults filled. Its series are registered in
// reg under the label path. The request queue holds MaxBatch·Replicas
// calls: what may wait while every worker is busy, each worker taking up to
// MaxBatch of them when it frees up. It is the backpressure point: with
// cfg.Shed, a full queue fails fast with ErrSaturated instead of blocking
// the caller.
func newBatcher[P any, R any](reg *obs.Registry, path string, cfg Config,
	run runFunc[P, R], done chan struct{}, wg *sync.WaitGroup) *batcher[P, R] {
	l := obs.Labels{"path": path}
	b := &batcher[P, R]{
		queue:    make(chan *call[P, R], cfg.MaxBatch*cfg.Replicas),
		cache:    lru.New[R](cfg.CacheSize),
		maxBatch: cfg.MaxBatch,
		shed:     cfg.Shed,
		done:     done,
		wg:       wg,
		queueWait: reg.Histogram("pf_batch_queue_wait_seconds",
			"Time a request waited in the batch queue before its forward, in seconds.", l, nil),
		compute: reg.Histogram("pf_batch_compute_seconds",
			"Batched forward compute time, in seconds.", l, nil),
		deadline: reg.Counter("pf_deadline_exceeded_total",
			"Requests shed because the client deadline had already expired.", l),
		requests:  reg.Counter("pf_batcher_requests_total", "Requests accepted by the batcher.", l),
		cacheHits: reg.Counter("pf_cache_hits_total", "Requests answered from the LRU without queueing.", l),
		batches:   reg.Counter("pf_batches_total", "Coalesced batches executed.", l),
		items:     reg.Counter("pf_batch_items_total", "Requests carried by executed batches.", l),
		sheds:     reg.Counter("pf_sheds_total", "Requests refused at admission (queue saturated).", l),
	}
	reg.GaugeFunc("pf_queue_depth", "Requests waiting in the batch queue right now.", l,
		func() float64 { return float64(len(b.queue)) })
	reg.GaugeFunc("pf_in_flight", "Admitted requests not yet answered.", l,
		func() float64 { return float64(b.inflight.Load()) })
	b.run.Store(&run)
	wg.Add(cfg.Replicas)
	for range cfg.Replicas {
		go b.worker()
	}
	return b
}

// setRun atomically swaps in a new generation's run function, then rolls
// the cache — in that order, which worker relies on. Callers serialize
// swaps (Engine.reloadMu).
func (b *batcher[P, R]) setRun(run runFunc[P, R]) {
	b.run.Store(&run)
	b.cache.Roll()
}

// worker receives the first queued call itself, drains whatever else is
// already queued (up to MaxBatch) without blocking, and runs that batch. A
// call that finds a worker idle thus leaves at once, and calls that queue
// behind busy workers leave together with the first worker to free up. The
// batch slice is reused and cleared after delivery, so a finished batch
// keeps no call, payload or context alive.
//
// The cache generation is read before the run is loaded, once per batch,
// and results are cached under it: a batch that raced a reload either ran
// on the old run and is dropped by the roll, or read the new generation and
// so ran on the new run. Calls whose context died in the queue are dropped
// before the forward — their callers already returned, so computing for
// them is pure waste; a deadline expiry is counted separately from other
// cancellations.
func (b *batcher[P, R]) worker() {
	defer b.wg.Done()
	batch := make([]*call[P, R], 0, b.maxBatch)
	for {
		select {
		case c := <-b.queue:
			batch = append(batch, c)
		case <-b.done:
			return
		}
	queued:
		for len(batch) < b.maxBatch {
			select {
			case c := <-b.queue:
				batch = append(batch, c)
			default:
				break queued
			}
		}
		live := batch[:0]
		for _, c := range batch {
			if err := c.ctx.Err(); err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					b.deadline.Inc()
				}
				continue
			}
			qw := time.Since(c.enqueued)
			b.queueWait.Observe(qw.Seconds())
			c.tr.Add("queue-wait", c.enqueued, qw)
			live = append(live, c)
		}
		if len(live) > 0 {
			gen := b.cache.Gen()
			run := *b.run.Load()
			payloads := make([]P, len(live))
			for i, c := range live {
				payloads[i] = c.payload
			}
			t0 := time.Now()
			results, stages := run(payloads)
			dc := time.Since(t0)
			b.compute.Observe(dc.Seconds())
			b.batches.Inc()
			b.items.Add(uint64(len(live)))
			for i, c := range live {
				c.tr.Add("batch-compute", t0, dc)
				for _, st := range stages {
					c.tr.Add(st.Name, t0, st.Dur)
				}
				b.cache.PutAt(gen, c.key, results[i])
				c.res <- results[i]
			}
		}
		clear(batch)
		batch = batch[:0]
	}
}

// do submits one request and blocks for its result, the cache, ctx
// cancellation, or engine close. In shed mode a full queue returns
// ErrSaturated immediately — the engine's admission-control contract:
// callers (the HTTP layer, the tier router) translate it into 429 +
// Retry-After instead of letting latency collapse under overload. A
// context already past its deadline is shed before touching the queue.
func (b *batcher[P, R]) do(ctx context.Context, payload P, key string) (R, error) {
	var zero R
	b.requests.Inc()
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			b.deadline.Inc()
		}
		return zero, err
	}
	if r, ok := b.cache.Get(key); ok {
		b.cacheHits.Inc()
		return r, nil
	}
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	c := &call[P, R]{
		payload: payload, key: key, res: make(chan R, 1),
		ctx: ctx, enqueued: time.Now(), tr: obs.TraceFrom(ctx),
	}
	if b.shed {
		select {
		case b.queue <- c:
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-b.done:
			return zero, ErrClosed
		default:
			b.sheds.Inc()
			return zero, ErrSaturated
		}
	} else {
		select {
		case b.queue <- c:
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-b.done:
			return zero, ErrClosed
		}
	}
	select {
	case r := <-c.res:
		return r, nil
	case <-ctx.Done():
		return zero, ctx.Err()
	case <-b.done:
		// A worker may have delivered concurrently with Close.
		select {
		case r := <-c.res:
			return r, nil
		default:
			return zero, ErrClosed
		}
	}
}

func (b *batcher[P, R]) stats() PathStats {
	return PathStats{
		Requests:         b.requests.Value(),
		CacheHits:        b.cacheHits.Value(),
		Batches:          b.batches.Value(),
		Items:            b.items.Value(),
		Sheds:            b.sheds.Value(),
		DeadlineExceeded: b.deadline.Value(),
		QueueDepth:       len(b.queue),
		InFlight:         int(b.inflight.Load()),
	}
}
