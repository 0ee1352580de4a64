package tier

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"pragformer/internal/api"
	"pragformer/internal/obs"
)

// replica is the router's view of one cmd/serve process: its health
// state, the router-side in-flight count (the bounded-load signal), and
// the readiness body last polled from GET /readyz.
//
// State machine: healthy ⇄ draining (rolling reload only) and healthy →
// ejected (FailThreshold consecutive failures) → healthy (successful
// re-probe). Draining replicas are skipped by the ring walk but still
// finish their in-flight requests; ejected replicas receive no traffic
// until a background probe readmits them. The values are what
// pf_replica_state reports.

type replicaState int32

const (
	stateHealthy replicaState = iota
	stateDraining
	stateEjected
)

type replica struct {
	name  string // base URL, also the ring identity
	state atomic.Int32

	// forwards holds one template request per forwarded path, its URL
	// parsed once: a forward is a shallow copy of it. The URL and header
	// are shared read-only, as a RoundTripper does not modify a request.
	forwards map[string]*http.Request

	// inflight counts requests the router has forwarded here and not yet
	// seen answered — the bounded-load accounting.
	inflight atomic.Int64
	// fails counts consecutive forward/probe failures toward ejection.
	fails atomic.Int32

	// statzErrs counts failed probes (pf_statz_errors_total, set by
	// registerMetrics), so a replica failing every health poll is visible
	// before it is ejected.
	statzErrs *obs.Counter

	// The readiness body of the last successful probe.
	generation atomic.Uint64
	backend    atomic.Pointer[string]
	ready      atomic.Bool
}

// forwardPaths are the replica routes the router forwards to: /predict,
// and /suggest, which also carries the router's /scan chunks.
var forwardPaths = [...]string{"/predict", "/suggest"}

// newReplica is the view of the replica at base URL name; a name that does
// not parse as a URL is an error.
func newReplica(name string) (*replica, error) {
	r := &replica{name: name, forwards: make(map[string]*http.Request, len(forwardPaths))}
	for _, path := range forwardPaths {
		req, err := http.NewRequest(http.MethodPost, name+path, nil)
		if err != nil {
			return nil, fmt.Errorf("tier: replica %q: %w", name, err)
		}
		req.Header = forwardHeader
		r.forwards[path] = req
	}
	empty := ""
	r.backend.Store(&empty)
	r.ready.Store(true) // optimistic until the first probe says otherwise
	return r, nil
}

func (r *replica) getState() replicaState  { return replicaState(r.state.Load()) }
func (r *replica) setState(s replicaState) { r.state.Store(int32(s)) }

// routable reports whether the ring walk may hand this replica traffic.
func (r *replica) routable() bool { return r.getState() == stateHealthy }

// probe polls GET /readyz. A 200, or a 503 whose body decodes (a replica
// draining or mid-reload), means the replica is alive: probe refreshes its
// readiness, backend and generation from the body and returns nil.
// Anything else is a failed probe, counted in pf_statz_errors_total. It
// does not change the health state — the caller decides what an answer
// means (ejection, readmission, backoff).
func (r *replica) probe(ctx context.Context, client *http.Client) (err error) {
	defer func() {
		if err != nil {
			r.statzErrs.Inc()
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.name+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	var rd api.Readiness
	if err := api.ReadJSON(io.LimitReader(resp.Body, 1<<16), &rd); err != nil {
		return fmt.Errorf("readyz: %s: %w", resp.Status, err)
	}
	r.generation.Store(rd.Generation)
	r.backend.Store(&rd.Backend)
	r.ready.Store(rd.Ready)
	return nil
}
