package serve

// Backend-selection tests: an int8 engine must answer exactly what the
// quantized model answers directly, report its backend and generation to
// probes, and keep the backend across hot reloads (re-quantizing the
// freshly loaded float bundle).

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"pragformer/internal/core"
)

func TestEngineInt8Backend(t *testing.T) {
	models := testModels(t)
	directive, ok := models.Directive.(*core.PragFormer)
	if !ok {
		t.Fatal("test bundle is not float")
	}
	q, err := core.Quantize(directive)
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(models, Config{MaxBatch: 8, Replicas: 2, Backend: core.BackendInt8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	if got := e.Stats().Backend; got != core.BackendInt8 {
		t.Fatalf("Stats.Backend = %q, want %q", got, core.BackendInt8)
	}
	if got := e.Models().Directive.BackendName(); got != core.BackendInt8 {
		t.Fatalf("served directive backend = %q", got)
	}

	pool := randIDs(rand.New(rand.NewSource(41)), 20, 64, models.Directive.VocabSize())
	for i, ids := range pool {
		got, err := e.Predict(context.Background(), ids)
		if err != nil {
			t.Fatal(err)
		}
		if want := predictOne(q, ids); got != want {
			t.Errorf("seq %d: engine %v != quantized model %v", i, got, want)
		}
	}
}

func TestEngineFloatBackendRejectsQuantArtifacts(t *testing.T) {
	models := testModels(t)
	q, err := core.Quantize(models.Directive.(*core.PragFormer))
	if err != nil {
		t.Fatal(err)
	}
	models.Directive = q
	if _, err := New(models, Config{Backend: core.BackendFloat64}); err == nil {
		t.Fatal("float64 engine accepted an int8 artifact")
	}
}

func TestEngineUnknownBackend(t *testing.T) {
	if _, err := New(testModels(t), Config{Backend: "float16"}); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestReloadKeepsBackend ships a float bundle to an int8 engine via Reload
// and checks the swap re-quantized it, bumped the generation, and kept
// serving quantized answers.
func TestReloadKeepsBackend(t *testing.T) {
	old := testModelsSeed(t, 5)
	fresh := testModelsSeed(t, 6)
	qFresh, err := core.Quantize(fresh.Directive.(*core.PragFormer))
	if err != nil {
		t.Fatal(err)
	}

	e, err := New(old, Config{Backend: core.BackendInt8})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if gen := e.Stats().Generation; gen != 0 {
		t.Fatalf("fresh engine at generation %d", gen)
	}

	if err := e.Reload(fresh); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Backend != core.BackendInt8 {
		t.Errorf("backend after reload = %q, want int8", st.Backend)
	}
	if st.Generation != 1 || st.Reloads != 1 {
		t.Errorf("generation %d / reloads %d after one reload", st.Generation, st.Reloads)
	}
	ids := randIDs(rand.New(rand.NewSource(42)), 1, 64, fresh.Directive.VocabSize())[0]
	got, err := e.Predict(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := predictOne(qFresh, ids); got != want {
		t.Errorf("post-reload predict %v != re-quantized bundle %v", got, want)
	}
}

// TestHealthzReportsBackendAndGeneration covers the identity surface: the
// body is the status, backend name and model generation, nothing else.
func TestHealthzReportsBackendAndGeneration(t *testing.T) {
	e, srv := httpEngine(t)
	var resp map[string]any
	get := func() {
		t.Helper()
		r, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("healthz status %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
	}
	get()
	if !reflect.DeepEqual(resp, map[string]any{"status": "ok", "backend": core.BackendFloat64, "generation": 0.0}) {
		t.Fatalf("healthz = %v", resp)
	}

	// A reload must be visible to probes as a generation bump.
	if err := e.Reload(testModelsSeed(t, 7)); err != nil {
		t.Fatal(err)
	}
	resp = nil
	get()
	if resp["generation"] != 1.0 {
		t.Fatalf("generation after reload = %v, want 1", resp["generation"])
	}
}

// TestWeightGaugeFollowsReload reads pf_model_weight_bytes off an engine
// that serves bundles as loaded: the directive series reports the serving
// model's weight bytes, a reload to the int8 form of the same model zeroes
// the float64 series and brings an int8 one, and that one reads smaller.
func TestWeightGaugeFollowsReload(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	series := func(backend string) float64 { // -1 when the series is absent
		t.Helper()
		var buf strings.Builder
		if err := e.Metrics().WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		prefix := fmt.Sprintf(`pf_model_weight_bytes{backend=%q,classifier="directive"} `, backend)
		for _, line := range strings.Split(buf.String(), "\n") {
			if v, ok := strings.CutPrefix(line, prefix); ok {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
		}
		return -1
	}
	f64 := core.WeightBytes(models.Directive)
	if got := series(core.BackendFloat64); got != float64(f64) || series(core.BackendInt8) != -1 {
		t.Fatalf("float64 series = %v (want %d), int8 series = %v", got, f64, series(core.BackendInt8))
	}
	q, err := models.WithBackend(core.BackendInt8)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reload(q); err != nil {
		t.Fatal(err)
	}
	i8 := core.WeightBytes(q.Directive)
	if got := series(core.BackendInt8); got != float64(i8) || series(core.BackendFloat64) != 0 {
		t.Fatalf("after reload: int8 series = %v (want %d), float64 series = %v", got, i8, series(core.BackendFloat64))
	}
	if i8 <= 0 || i8 >= f64 {
		t.Errorf("int8 weights are %d bytes against %d in float64", i8, f64)
	}
}
