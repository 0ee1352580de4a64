package tier

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestProbeFaultTable ticks the prober by hand against a replica whose
// GET /readyz gives one answer throughout. A 200 or a 503 with a readiness
// body is an alive replica: no error counted, never ejected, its generation
// adopted — a draining or reloading replica included. Anything else is a
// failed probe: counted each tick, and the FailThreshold-th consecutive one
// ejects. An ejected replica is readmitted by a re-probe only when the body
// says ready. Every outcome is read off GET /statz, as an operator sees it.
func TestProbeFaultTable(t *testing.T) {
	const threshold = 3
	for _, tc := range []struct {
		name         string
		status       int // 0: nothing listens
		body         string
		alive, ready bool
		gen          float64
	}{
		{"200 ready", http.StatusOK, `{"ready":true,"state":"ok","backend":"fake","generation":4}`, true, true, 4},
		{"503 draining", http.StatusServiceUnavailable, `{"ready":false,"state":"draining","backend":"fake","generation":5}`, true, false, 5},
		{"503 reloading", http.StatusServiceUnavailable, `{"ready":false,"state":"reloading","backend":"fake","generation":6}`, true, false, 6},
		{"200 undecodable", http.StatusOK, `<html>ok</html>`, false, false, 0},
		{"500", http.StatusInternalServerError, `{"error":"injected failure"}`, false, false, 0},
		{"no listener", 0, "", false, false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/readyz" {
					t.Errorf("prober asked for %s", r.URL.Path)
				}
				w.WriteHeader(tc.status)
				_, _ = io.WriteString(w, tc.body)
			}))
			if tc.status == 0 {
				srv.Close()
			} else {
				t.Cleanup(srv.Close)
			}
			// The background prober never ticks; the test does.
			rt := newTestRouter(t, Config{Replicas: []string{srv.URL}, FailThreshold: threshold, ProbeInterval: time.Hour})
			rep := rt.reps[srv.URL]
			check := func(when string, probes int, state replicaState) {
				t.Helper()
				st := statz(t, rt)
				want := map[string]float64{
					"pf_statz_errors_total": float64(probes),
					"pf_replica_state":      float64(state),
					"pf_replica_generation": tc.gen,
				}
				if tc.alive {
					want["pf_statz_errors_total"] = 0
				}
				for family, w := range want {
					var got float64
					if err := json.Unmarshal(st[family+`{replica="`+srv.URL+`"}`], &got); err != nil || got != w {
						t.Errorf("%s: %s = %v, want %v", when, family, got, w)
					}
				}
			}

			backoff, skip := map[string]int{}, map[string]int{}
			for tick := 1; tick <= threshold; tick++ {
				rt.probeAll(backoff, skip)
				state := stateHealthy
				if !tc.alive && tick == threshold {
					state = stateEjected
				}
				check("healthy tick", tick, state)
			}
			if ejected := rt.ejects.Value() == 1; ejected == tc.alive || rt.ejects.Value() > 1 {
				t.Errorf("%d ejections of a replica that is alive: %v", rt.ejects.Value(), tc.alive)
			}
			if tc.alive && rep.ready.Load() != tc.ready {
				t.Errorf("ready = %v after an alive probe, want the body's %v", rep.ready.Load(), tc.ready)
			}

			// However it left rotation, the first re-probe decides.
			rep.setState(stateEjected)
			rt.probeAll(map[string]int{}, map[string]int{})
			state := stateEjected
			if tc.ready {
				state = stateHealthy
			}
			check("re-probe", threshold+1, state)
			if readmitted := rt.readmits.Value() == 1; readmitted != tc.ready || rt.readmits.Value() > 1 {
				t.Errorf("%d readmissions of a replica that is ready: %v", rt.readmits.Value(), tc.ready)
			}
		})
	}
}
