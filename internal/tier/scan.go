package tier

import (
	"context"
	"net/http"

	"pragformer/internal/api"
	"pragformer/internal/scan"
)

// POST /scan through the tier: the router parses and dedupes loops
// locally (cheap, CPU-bound), answers warm loops from the shared verdict
// store, and fans only the cold unique loops across the fleet by their
// content hash — the same key the replicas' own LRUs use. The scan
// pipeline is reused wholesale via scan.Config.Store (the shared store
// read-through) and scanVerdicts (the HTTP fan-out), so the report bytes
// match a single replica's /scan output; the handler body itself is
// api.ServeScan, the same one a replica runs.

// scanVerdicts is the scan pipeline's inference stage over the fleet: each
// chunk of canonical snippets is routed by content hash and forwarded as
// one /suggest per replica. The /suggest wire item is the pipeline's
// verdict item, so replica results are decoded straight into what the
// pipeline reads.
func (rt *Router) scanVerdicts(ctx context.Context, codes []string) []scan.Verdict {
	// Settled exactly as a /suggest is. Scan snippets are already canonical
	// prints; their hash is the routing key AND the store key.
	verdicts := make([]scan.Verdict, len(codes))
	fanOut(ctx, rt, "/suggest", codes, nil, verdicts,
		func(i int) (string, bool) { return scan.HashSnippet(codes[i]), true }, setSuggestErr)
	return verdicts
}

func (rt *Router) handleScan(w http.ResponseWriter, r *http.Request) {
	api.ServeScan(w, r, scan.Config{
		Backend: rt.backendLabel(),
		Store:   rt.pinStore(),
	}, func(codes []string) []scan.Verdict { return rt.scanVerdicts(r.Context(), codes) })
}
