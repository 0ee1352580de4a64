package serve

import (
	"context"
	"net/http"

	"pragformer/internal/advisor"
	"pragformer/internal/api"
	"pragformer/internal/scan"
)

// engineSuggester adapts the engine's context-ful batch path to the
// scanner's advisor.Suggester dependency for one request.
type engineSuggester struct {
	e   *Engine
	ctx context.Context
}

func (s engineSuggester) SuggestBatch(codes []string) ([]advisor.BatchItem, error) {
	return s.e.SuggestBatch(s.ctx, codes)
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
