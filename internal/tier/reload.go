package tier

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"pragformer/internal/api"
)

// handleReload runs the rolling reload: one replica at a time is drained
// (the ring stops routing to it, in-flight forwards finish), told to
// POST /reload, health-gated on /readyz reporting the bumped generation,
// and readmitted — the fleet never has more than one replica out of
// rotation, and no in-flight request is dropped. Afterwards the verdict
// store rolls: the old bundles' verdicts are freed, and one still being
// computed by a forward that started before the roll is dropped on arrival.
func (rt *Router) handleReload(w http.ResponseWriter, r *http.Request) {
	rt.reloadMu.Lock()
	defer rt.reloadMu.Unlock()
	type outcome struct {
		Replica    string `json:"replica"`
		Status     string `json:"status"`
		Generation uint64 `json:"generation,omitempty"`
		Error      string `json:"error,omitempty"`
	}
	outcomes := make([]outcome, 0, len(rt.order))
	failed := 0
	for _, name := range rt.order {
		rep := rt.reps[name]
		if rep.getState() == stateEjected {
			outcomes = append(outcomes, outcome{Replica: name, Status: "skipped (ejected)"})
			failed++
			continue
		}
		oldGen := rep.generation.Load()
		rep.setState(stateDraining)
		err := rt.rollOne(r.Context(), rep, oldGen)
		rep.setState(stateHealthy) // readmit even on failure: it still serves the old bundle
		if err != nil {
			outcomes = append(outcomes, outcome{Replica: name, Status: "failed", Error: err.Error()})
			failed++
			continue
		}
		outcomes = append(outcomes, outcome{Replica: name, Status: "reloaded", Generation: rep.generation.Load()})
	}
	gen := rt.store.Roll()
	rt.reloads.Inc()
	status := "reloaded"
	code := http.StatusOK
	if failed > 0 {
		status = "partial"
		if failed == len(rt.order) {
			status = "failed"
			code = http.StatusInternalServerError
		}
	}
	api.WriteJSON(w, code, map[string]any{
		"status": status, "replicas": outcomes, "store_generation": gen,
	})
}

// rollOne drains, reloads, and health-gates one replica.
func (rt *Router) rollOne(ctx context.Context, rep *replica, oldGen uint64) error {
	deadline := time.Now().Add(rt.cfg.DrainTimeout)
	for rep.inflight.Load() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("drain timeout with %d in flight", rep.inflight.Load())
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.name+"/reload", nil)
	if err != nil {
		return err
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("reload: %s", resp.Status)
	}
	// Health gate: readmit only after the replica reports ready on the NEW
	// generation.
	deadline = time.Now().Add(rt.cfg.DrainTimeout)
	for {
		if err := rep.probe(ctx, rt.client); err == nil &&
			rep.ready.Load() && rep.generation.Load() > oldGen {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("not ready on new generation after reload")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
