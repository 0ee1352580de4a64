package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"

	"pragformer/internal/api"
	"pragformer/internal/scan"
)

// suggestAll fans snippets out through the suggest batcher concurrently:
// the workers coalesce them (together with any other in-flight callers)
// into batched forwards, so one multi-item /suggest — or a repo
// scan riding the engine — shares batches with live traffic instead of
// bypassing it. It is the /suggest answer: engine-level failures
// (saturation, cancellation, close) surface per item, and shed counts the
// items refused with ErrSaturated. A single snippet is answered on the
// caller's goroutine.
func (e *Engine) suggestAll(ctx context.Context, codes []string) ([]scan.Verdict, int) {
	verdicts := make([]scan.Verdict, len(codes))
	if len(codes) == 1 {
		return verdicts, e.suggestInto(ctx, &verdicts[0], codes[0])
	}
	var wg sync.WaitGroup
	var sheds atomic.Int64
	for i, code := range codes {
		wg.Add(1)
		go func(v *scan.Verdict, code string) {
			defer wg.Done()
			sheds.Add(int64(e.suggestInto(ctx, v, code)))
		}(&verdicts[i], code)
	}
	wg.Wait()
	return verdicts, int(sheds.Load())
}

// suggestInto settles one item: its verdict, or the engine's refusal as
// an error item. shed is 1 for an ErrSaturated refusal.
func (e *Engine) suggestInto(ctx context.Context, v *scan.Verdict, code string) (shed int) {
	var err error
	if *v, err = e.suggest.do(ctx, code, code); err != nil {
		v.Error = err.Error()
		if errors.Is(err, ErrSaturated) {
			shed = 1
		}
	}
	return shed
}

// handleScan is POST /scan: repo-scale scanning over the serving stack.
// The scanner parses and dedupes the loops server-side and drives the
// engine's suggest batcher, so scan inference coalesces with live
// /suggest traffic and follows hot reloads and the engine's backend
// selection.
func (e *Engine) handleScan(w http.ResponseWriter, r *http.Request) {
	api.ServeScan(w, r, scan.Config{
		BatchSize: e.cfg.MaxBatch,
		Backend:   e.Stats().Backend,
	}, func(codes []string) []scan.Verdict {
		verdicts, _ := e.suggestAll(r.Context(), codes)
		return verdicts
	})
}
