package tier

import (
	"context"
	"errors"
	"net/http"

	"pragformer/internal/advisor"
	"pragformer/internal/api"
	"pragformer/internal/obs"
	"pragformer/internal/scan"
)

// POST /scan through the tier: the router parses and dedupes loops
// locally (cheap, CPU-bound), answers warm loops from the shared verdict
// store, and fans only the cold unique loops across the fleet by their
// content hash — the same key the replicas' own LRUs use. The scan
// pipeline is reused wholesale via scan.Config.Store (the shared store
// read-through) and scan.VerdictSuggester (the HTTP fan-out), so the
// report bytes match a single replica's /scan output; the handler body
// itself is api.ServeScan, the same one a replica runs.

// nsStore adapts the router's shared store to one scan run: it prefixes
// keys with the verdict namespace (backend|model|generation) and counts
// hits/misses into the router's fleet-wide tallies.
type nsStore struct {
	rt *Router
}

func (s nsStore) Get(hash string) (*scan.Suggestion, bool) {
	v, ok := s.rt.store.Get(s.rt.storeKey(hash))
	if ok {
		s.rt.storeHits.Add(1)
	} else {
		s.rt.storeMisses.Add(1)
	}
	return v, ok
}

func (s nsStore) Put(hash string, v *scan.Suggestion) {
	s.rt.store.Put(s.rt.storeKey(hash), v)
}

func (s nsStore) Len() int { return s.rt.store.Len() }

// tierSuggester drives the scan pipeline's inference stage over the
// fleet: each chunk of canonical snippets is routed by content hash and
// forwarded as one /suggest per replica. It implements
// scan.VerdictSuggester — the /suggest wire item is the report form, so
// decoded replica results are handed to the pipeline as they are.
type tierSuggester struct {
	rt  *Router
	ctx context.Context
}

// SuggestBatch satisfies advisor.Suggester's method set; the scan
// pipeline never calls it on a VerdictSuggester.
func (t tierSuggester) SuggestBatch([]string) ([]advisor.BatchItem, error) {
	return nil, errors.New("tier: SuggestBatch is not used; scan goes through SuggestVerdicts")
}

func (t tierSuggester) SuggestVerdicts(codes []string) ([]scan.Verdict, error) {
	tr := obs.TraceFrom(t.ctx)
	verdicts := make([]scan.Verdict, len(codes))
	keys := make([]string, len(codes))
	for i, code := range codes {
		// Scan snippets are already canonical prints; their hash is the
		// routing key AND the store key.
		keys[i] = scan.HashSnippet(code)
	}
	endRoute := tr.Start("route")
	groups := t.rt.groupByKey(keys)
	endRoute()
	for _, g := range groups {
		if g.rep == nil {
			t.rt.sheds.Add(uint64(len(g.indices)))
			for _, i := range g.indices {
				verdicts[i].Err = errNoReplica
			}
			continue
		}
		sub := api.SuggestRequest{}
		for _, i := range g.indices {
			sub.Codes = append(sub.Codes, codes[i])
		}
		var resp api.SuggestResponse
		if err := t.rt.forward(t.ctx, g.rep, "/suggest", sub, &resp); err != nil {
			for _, i := range g.indices {
				verdicts[i].Err = err
			}
			continue
		}
		tr.Merge(resp.Trace)
		for k, i := range g.indices {
			if k >= len(resp.Results) {
				verdicts[i].Err = errors.New("tier: short replica response")
				continue
			}
			if e := resp.Results[k].Error; e != "" {
				verdicts[i].Err = errors.New(e)
				continue
			}
			verdicts[i].Suggestion = &resp.Results[k].Suggestion
		}
	}
	return verdicts, nil
}

func (rt *Router) handleScan(w http.ResponseWriter, r *http.Request) {
	api.ServeScan(w, r, scan.Config{
		Workers: rt.cfg.ScanWorkers,
		Backend: rt.backendLabel(),
		Store:   nsStore{rt: rt},
	}, tierSuggester{rt: rt, ctx: r.Context()})
}
