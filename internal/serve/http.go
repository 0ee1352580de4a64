package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"pragformer/internal/api"
	"pragformer/internal/obs"
)

// HTTP JSON API over the engine (bodies are the internal/api types):
//
//	POST /predict {"code": "..."} | {"codes": [...]} | {"ids": [[...]]}
//	POST /suggest {"code": "..."} | {"codes": [...]}
//	POST /scan    {"files": [{"path": "a.c", "source": "..."}], "format": "json"|"sarif"}
//	POST /reload  (empty body — hot-swaps models from the configured source)
//	GET  /healthz (liveness, plus the backend and model generation)
//	GET  /readyz  (readiness: 503 while draining or mid-reload)
//	GET  /statz   (the telemetry registry as JSON: the /metrics series)
//	GET  /metrics (the telemetry registry as Prometheus text)
//
// Multi-item requests fan out concurrently into the engine, so one HTTP
// batch coalesces into batched forwards the same way concurrent clients
// do. Per-item failures (unlexable snippets) are reported inline; the
// request itself fails only on malformed JSON or transport-level problems
// — or saturation: when every item of a request was shed (Config.Shed),
// the response is 429 with a Retry-After header instead of a result list.

// healthzResponse is the /healthz body. Backend and Generation surface the
// compute backend and the serving model generation to probes, so a rollout
// can verify a reload actually took (generation bumped) and which numeric
// path answers traffic.
type healthzResponse struct {
	Status     string `json:"status"`
	Backend    string `json:"backend"`
	Generation uint64 `json:"generation"`
}

// Handler returns the engine's HTTP API. The request-serving POST routes
// run under the obs middleware: duration histograms per path, trace
// minting/propagation via X-PF-Trace, and X-PF-Deadline-Ms enforcement
// (an expired budget is shed with 504 before any work).
func (e *Engine) Handler() http.Handler {
	mw := obs.NewMiddleware(e.reg, e.cfg.Logger)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /predict", mw.Wrap("/predict", e.handlePredict))
	mux.HandleFunc("POST /suggest", mw.Wrap("/suggest", e.handleSuggest))
	mux.HandleFunc("POST /scan", mw.Wrap("/scan", e.handleScan))
	mux.HandleFunc("POST /reload", e.handleReload)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /readyz", e.handleReadyz)
	mux.Handle("GET /statz", e.reg.JSONHandler())
	mux.Handle("GET /metrics", e.reg.Handler())
	return mux
}

// encode tokenizes and encodes one snippet against the currently served
// bundle.
func (e *Engine) encode(code string) ([]int, error) {
	models := e.Models()
	return models.Vocab.EncodeText(nil, code, models.EffectiveMaxLen())
}

// validateIDs rejects raw id sequences the model cannot embed — this is
// the untrusted-input boundary, and an out-of-range id would panic a batch
// worker. (A reload racing an accepted request is additionally guarded by
// the engine's in-batch clamping.)
func (e *Engine) validateIDs(ids []int) error {
	if len(ids) == 0 {
		return errEmptyIDs
	}
	vocab := e.Models().Directive.VocabSize()
	for _, id := range ids {
		if id < 0 || id >= vocab {
			return fmt.Errorf("id %d out of vocabulary range [0, %d)", id, vocab)
		}
	}
	return nil
}

const shedMessage = "queue saturated, retry later"

func (e *Engine) handlePredict(w http.ResponseWriter, r *http.Request) {
	api.ServePredict(w, r, shedMessage, e.answerPredict)
}

func (e *Engine) handleSuggest(w http.ResponseWriter, r *http.Request) {
	api.ServeSuggest(w, r, shedMessage, e.suggestAll)
}

// answerPredict fans every item into the predict batcher at once; shed
// counts the items refused with ErrSaturated.
func (e *Engine) answerPredict(ctx context.Context, codes []string, rawIDs [][]int) ([]api.PredictResult, int) {
	results := make([]api.PredictResult, len(codes)+len(rawIDs))
	var wg sync.WaitGroup
	var sheds atomic.Int64
	predictIDs := func(out *api.PredictResult, ids []int) {
		defer wg.Done()
		p, err := e.Predict(ctx, ids)
		if err != nil {
			if errors.Is(err, ErrSaturated) {
				sheds.Add(1)
			}
			out.Error = err.Error()
			return
		}
		out.Probability = p
		out.Parallelize = p > 0.5
	}
	for i := range results {
		var ids []int
		var err error
		if i < len(codes) {
			ids, err = e.encode(codes[i])
		} else {
			ids = rawIDs[i-len(codes)]
			err = e.validateIDs(ids)
		}
		if err != nil {
			results[i].Error = err.Error()
			continue
		}
		wg.Add(1)
		go predictIDs(&results[i], ids)
	}
	wg.Wait()
	return results, int(sheds.Load())
}

// handleReload hot-swaps the served models from the configured source.
// Traffic keeps flowing while the new bundle loads; only the final swap is
// atomic. 409 when the server has no reload source (demo mode).
func (e *Engine) handleReload(w http.ResponseWriter, _ *http.Request) {
	if e.cfg.Source == nil {
		api.Error(w, http.StatusConflict, "no reload source configured")
		return
	}
	if err := e.ReloadFromSource(); err != nil {
		api.Error(w, http.StatusInternalServerError, err.Error())
		return
	}
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "reloads": e.reloads.Value()})
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	st := e.Stats()
	api.WriteJSON(w, http.StatusOK, healthzResponse{Status: "ok", Backend: st.Backend, Generation: st.Generation})
}

// handleReadyz answers not ready (with a 503) while the engine is
// draining toward shutdown or mid-reload. Liveness (/healthz) stays 200
// the whole time — the process is fine, it just should not receive new
// traffic.
func (e *Engine) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := e.Stats()
	resp := api.Readiness{Ready: true, State: "ok", Backend: st.Backend, Generation: st.Generation}
	status := http.StatusOK
	switch {
	case st.Draining:
		resp.Ready, resp.State, status = false, "draining", http.StatusServiceUnavailable
	case st.Reloading:
		resp.Ready, resp.State, status = false, "reloading", http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, resp)
}
