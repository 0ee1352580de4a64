package serve

import (
	"context"
	"errors"
	"net/http"
	"sync"

	"pragformer/internal/advisor"
	"pragformer/internal/api"
	"pragformer/internal/scan"
)

// engineSuggester is the scanner's suggester for one /scan request: a
// scan.VerdictSuggester over the engine's suggest batcher.
type engineSuggester struct {
	e   *Engine
	ctx context.Context
}

// SuggestBatch satisfies advisor.Suggester's method set; the scan
// pipeline never calls it on a VerdictSuggester.
func (s engineSuggester) SuggestBatch([]string) ([]advisor.BatchItem, error) {
	return nil, errors.New("serve: SuggestBatch is not used; scan goes through SuggestVerdicts")
}

func (s engineSuggester) SuggestVerdicts(codes []string) ([]scan.Verdict, error) {
	return s.e.suggestAll(s.ctx, codes), nil
}

// suggestAll fans snippets out through the suggest batcher concurrently:
// the dispatcher coalesces them (together with any other in-flight
// callers) into batched forwards, so one multi-item /suggest — or a repo
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
	}, engineSuggester{e: e, ctx: r.Context()})
}
