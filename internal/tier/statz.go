package tier

import (
	"encoding/json"
	"net/http"

	"pragformer/internal/obs"
)

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{"status": "ok", "replicas": len(rt.order)})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, rep := range rt.reps {
		if rep.routable() {
			healthy++
		}
	}
	body := map[string]any{"ready": healthy > 0, "healthy": healthy, "replicas": len(rt.order)}
	if healthy == 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		_ = json.NewEncoder(w).Encode(body)
		return
	}
	writeJSON(w, body)
}

// tierStatz is the router's /statz body.
type tierStatz struct {
	Backend          string         `json:"backend"`
	ModelID          string         `json:"model_id,omitempty"`
	Forwards         uint64         `json:"forwards"`
	ForwardErrs      uint64         `json:"forward_errors"`
	Sheds            uint64         `json:"sheds"`
	RateLimited      uint64         `json:"rate_limited"`
	DeadlineExceeded uint64         `json:"deadline_exceeded"`
	StoreHits        uint64         `json:"store_hits"`
	StoreMisses      uint64         `json:"store_misses"`
	StoreLen         int            `json:"store_len"`
	StoreGen         uint64         `json:"store_generation"`
	Ejects           uint64         `json:"ejects"`
	Readmits         uint64         `json:"readmits"`
	Reloads          uint64         `json:"reloads"`
	Replicas         []replicaStatd `json:"replicas"`
	// Latency carries the router's request-duration percentiles per HTTP
	// path — the same histograms GET /metrics exposes.
	Latency map[string]latencyStatz `json:"latency,omitempty"`
}

// latencyStatz is one path's request-duration summary in milliseconds.
type latencyStatz struct {
	Count uint64  `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// replicaStatd is one replica's row in the router's /statz.
type replicaStatd struct {
	Name       string `json:"name"`
	State      string `json:"state"`
	InFlight   int64  `json:"in_flight"`
	QueueDepth int64  `json:"queue_depth"`
	Generation uint64 `json:"generation"`
	Backend    string `json:"backend,omitempty"`
	// StatzErrors counts failed health-poll /statz probes — previously
	// silent transport or decode failures, surfaced per replica.
	StatzErrors uint64 `json:"statz_errors"`
	// P99Ms is the replica's own worst-path p99 request latency as last
	// reported through its /statz poll; 0 until a poll carries one.
	P99Ms float64 `json:"p99_ms,omitempty"`
}

func (rt *Router) handleStatz(w http.ResponseWriter, _ *http.Request) {
	st := tierStatz{
		Backend: rt.backendLabel(), ModelID: rt.cfg.ModelID,
		Forwards: rt.forwards.Load(), ForwardErrs: rt.forwardErrs.Load(),
		Sheds: rt.sheds.Load(), RateLimited: rt.rateLimited.Load(),
		DeadlineExceeded: rt.deadlineExp.Value(),
		StoreHits:        rt.storeHits.Load(), StoreMisses: rt.storeMisses.Load(),
		StoreLen: rt.store.Len(), StoreGen: rt.storeGen.Load(),
		Ejects: rt.ejects.Load(), Readmits: rt.readmits.Load(),
		Reloads: rt.reloads.Load(),
		Latency: map[string]latencyStatz{},
	}
	for _, path := range []string{"/predict", "/suggest", "/scan"} {
		h := obs.RequestHistogram(rt.reg, path)
		if h.Count() > 0 {
			st.Latency[path] = latencyStatz{
				Count: h.Count(),
				P50Ms: h.Quantile(0.50) * 1000, P90Ms: h.Quantile(0.90) * 1000,
				P99Ms: h.Quantile(0.99) * 1000, MaxMs: h.Max() * 1000,
			}
		}
	}
	for _, name := range rt.order {
		rep := rt.reps[name]
		st.Replicas = append(st.Replicas, replicaStatd{
			Name: name, State: rep.getState().String(),
			InFlight: rep.inflight.Load(), QueueDepth: rep.queueDepth.Load(),
			Generation: rep.generation.Load(), Backend: *rep.backend.Load(),
			StatzErrors: rep.statzErrs.Load(),
			P99Ms:       float64(rep.p99Micros.Load()) / 1000,
		})
	}
	writeJSON(w, st)
}
