package tier

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"pragformer/internal/obs"
	"pragformer/internal/serve"
)

// replica is the router's view of one cmd/serve process: its health
// state, the router-side in-flight count (the bounded-load signal), and
// the last admission stats polled from GET /statz.
//
// State machine: healthy ⇄ draining (rolling reload only) and healthy →
// ejected (FailThreshold consecutive failures) → healthy (successful
// re-probe). Draining replicas are skipped by the ring walk but still
// finish their in-flight requests; ejected replicas receive no traffic
// until a background probe readmits them.

type replicaState int32

const (
	stateHealthy replicaState = iota
	stateDraining
	stateEjected
)

func (s replicaState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDraining:
		return "draining"
	case stateEjected:
		return "ejected"
	}
	return "unknown"
}

type replica struct {
	name  string // base URL, also the ring identity
	state atomic.Int32

	// inflight counts requests the router has forwarded here and not yet
	// seen answered — the bounded-load accounting.
	inflight atomic.Int64
	// fails counts consecutive forward/probe failures toward ejection.
	fails atomic.Int32

	// statzErrs counts failed /statz polls (pf_statz_errors_total, set by
	// registerMetrics) — before these were surfaced, a replica could fail
	// every health poll for minutes (DNS, decode drift) with nothing
	// visible until ejection.
	statzErrs *obs.Counter

	// Signals from the last successful /statz poll.
	generation atomic.Uint64
	queueDepth atomic.Int64 // predict + suggest queue depth
	backend    atomic.Pointer[string]
	ready      atomic.Bool
	// p99Micros is the worst per-path p99 request latency the replica
	// reported, in integer microseconds (atomic-friendly).
	p99Micros atomic.Int64
}

func newReplica(name string) *replica {
	r := &replica{name: name}
	empty := ""
	r.backend.Store(&empty)
	r.ready.Store(true) // optimistic until the first probe says otherwise
	return r
}

func (r *replica) getState() replicaState  { return replicaState(r.state.Load()) }
func (r *replica) setState(s replicaState) { r.state.Store(int32(s)) }

// routable reports whether the ring walk may hand this replica traffic.
func (r *replica) routable() bool { return r.getState() == stateHealthy }

// probeStatz polls GET /statz and refreshes the replica's admission
// signals. It does not change the health state — the caller decides what
// a success or failure means (ejection, readmission, backoff).
func (r *replica) probeStatz(ctx context.Context, client *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.name+"/statz", nil)
	if err != nil {
		r.statzErrs.Inc()
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		r.statzErrs.Inc()
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		r.statzErrs.Inc()
		return fmt.Errorf("statz: %s", resp.Status)
	}
	var st serve.Statz
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st); err != nil {
		r.statzErrs.Inc()
		return err
	}
	r.generation.Store(st.Generation)
	r.queueDepth.Store(int64(st.Predict.QueueDepth + st.Suggest.QueueDepth))
	b := st.Backend
	r.backend.Store(&b)
	r.ready.Store(!st.Draining && !st.Reloading)
	var worst float64
	for _, l := range st.Latency {
		if l.P99Ms > worst {
			worst = l.P99Ms
		}
	}
	if worst > 0 {
		r.p99Micros.Store(int64(worst * 1000))
	}
	return nil
}

// probeReady polls GET /readyz; nil means the replica reports ready.
func (r *replica) probeReady(ctx context.Context, client *http.Client) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.name+"/readyz", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("readyz: %s", resp.Status)
	}
	return nil
}
