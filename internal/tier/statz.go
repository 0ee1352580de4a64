package tier

import (
	"net/http"

	"pragformer/internal/api"
)

func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	api.WriteJSON(w, http.StatusOK, map[string]any{"status": "ok", "replicas": len(rt.order)})
}

func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	healthy := 0
	for _, rep := range rt.reps {
		if rep.routable() {
			healthy++
		}
	}
	status := http.StatusOK
	if healthy == 0 {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, map[string]any{"ready": healthy > 0, "healthy": healthy, "replicas": len(rt.order)})
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
	Latency map[string]api.Latency `json:"latency,omitempty"`
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
		Forwards: rt.forwards.Value(), ForwardErrs: rt.forwardErrs.Value(),
		Sheds: rt.sheds.Value(), RateLimited: rt.rateLimited.Value(),
		DeadlineExceeded: rt.deadlineExp.Value(),
		StoreHits:        rt.storeHits.Value(), StoreMisses: rt.storeMisses.Value(),
		StoreLen: rt.store.Len(), StoreGen: rt.store.Gen(),
		Ejects: rt.ejects.Value(), Readmits: rt.readmits.Value(),
		Reloads: rt.reloads.Value(),
		Latency: api.LatencyByPath(rt.reg),
	}
	for _, name := range rt.order {
		rep := rt.reps[name]
		st.Replicas = append(st.Replicas, replicaStatd{
			Name: name, State: rep.getState().String(),
			InFlight: rep.inflight.Load(), QueueDepth: rep.queueDepth.Load(),
			Generation: rep.generation.Load(), Backend: *rep.backend.Load(),
			StatzErrors: rep.statzErrs.Value(),
			P99Ms:       float64(rep.p99Micros.Load()) / 1000,
		})
	}
	api.WriteJSON(w, http.StatusOK, st)
}
