package serve

import (
	"context"
	"net/http"
	"sync"

	"pragformer/internal/api"
	"pragformer/internal/scan"
)

// suggestAll fans snippets out through the suggest batcher concurrently:
// the workers coalesce them (together with any other in-flight callers)
// into batched forwards, so one multi-item /suggest — or a repo
// scan riding the engine — shares batches with live traffic instead of
// bypassing it. Engine-level failures (saturation, cancellation, close)
// surface per item. A single snippet is answered on the caller's goroutine.
func (e *Engine) suggestAll(ctx context.Context, codes []string) []scan.Verdict {
	verdicts := make([]scan.Verdict, len(codes))
	if len(codes) == 1 {
		verdicts[0].Suggestion, verdicts[0].Err = e.Suggest(ctx, codes[0])
		return verdicts
	}
	var wg sync.WaitGroup
	for i, code := range codes {
		wg.Add(1)
		go func(v *scan.Verdict, code string) {
			defer wg.Done()
			v.Suggestion, v.Err = e.Suggest(ctx, code)
		}(&verdicts[i], code)
	}
	wg.Wait()
	return verdicts
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
	}, func(codes []string) []scan.Verdict { return e.suggestAll(r.Context(), codes) })
}
