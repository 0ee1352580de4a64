package tier

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/api"
	"pragformer/internal/core"
	"pragformer/internal/serve"
	"pragformer/internal/tokenize"
)

// Router-over-replicas vs one engine straight, for measuring while working;
// the numbers of record are the harness's tier.router_overhead_us and
// latency_p50_ms on tier_suggest_hot (`bash bench/run.sh`). The model is the same untrained bundle the serve benchmarks use —
// the tier adds routing, HTTP hops, and store lookups around identical
// compute, so the interesting numbers are the overhead per request and the
// warm-store path that answers with no forward at all.

func benchBundle(b *testing.B) *advisor.Models {
	b.Helper()
	v := tokenize.BuildVocab([][]string{{"for", "(", "i", "=", "0", ";", "<", "n", "+", ")", "a", "[", "]", "*", "b"}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 100, MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 5)
	if err != nil {
		b.Fatal(err)
	}
	return &advisor.Models{Directive: m, Vocab: v}
}

func benchEngine(b *testing.B, models *advisor.Models) *httptest.Server {
	b.Helper()
	e, err := serve.New(models, serve.Config{
		MaxBatch: 16, CacheSize: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(e.Close)
	srv := httptest.NewServer(e.Handler())
	b.Cleanup(srv.Close)
	return srv
}

func benchBodies(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		code := fmt.Sprintf("for (i = 0; i < %d; i++) a[i] = a[i] + %d * b[i];", i+2, i+1)
		buf, _ := json.Marshal(api.PredictRequest{Code: code})
		out[i] = buf
	}
	return out
}

func benchPost(b *testing.B, url string, bodies [][]byte) {
	b.Helper()
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	var i int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[int(i)%len(bodies)]
			i++
			resp, err := http.Post(url+"/predict", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
}

// BenchmarkSingleEngineHTTP is the baseline: one replica, direct HTTP.
func BenchmarkSingleEngineHTTP(b *testing.B) {
	srv := benchEngine(b, benchBundle(b))
	benchPost(b, srv.URL, benchBodies(64))
}

// BenchmarkRouterThroughput routes the same load across two replicas.
func BenchmarkRouterThroughput(b *testing.B) {
	models := benchBundle(b)
	rt, err := New(Config{
		Replicas: []string{benchEngine(b, models).URL, benchEngine(b, models).URL},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)
	benchPost(b, front.URL, benchBodies(64))
}

// BenchmarkRouterWarmSuggest measures the shared-store read-through path:
// after one cold pass every verdict is answered by the router itself, no
// replica forward.
func BenchmarkRouterWarmSuggest(b *testing.B) {
	models := benchBundle(b)
	rt, err := New(Config{
		Replicas: []string{benchEngine(b, models).URL, benchEngine(b, models).URL},
		Backend:  "bench", ModelID: "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(rt.Close)
	front := httptest.NewServer(rt.Handler())
	b.Cleanup(front.Close)

	// Canonical-form snippets so the cold pass populates the store.
	bodies := make([][]byte, 64)
	for i := range bodies {
		snip, _, ok := canonical(fmt.Sprintf("for (i = 0; i < %d; i++) a[i] = a[i] + %d * b[i];", i+2, i+1))
		if !ok {
			b.Fatal("bench snippet did not canonicalize")
		}
		buf, _ := json.Marshal(api.SuggestRequest{Code: snip})
		bodies[i] = buf
	}
	for _, body := range bodies { // cold pass
		resp, err := http.Post(front.URL+"/suggest", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
	}
	if rt.store.Len() == 0 {
		b.Fatal("cold pass did not populate the store")
	}
	cold := rt.forwards.Value()

	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	var i int64
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			body := bodies[int(i)%len(bodies)]
			i++
			resp, err := http.Post(front.URL+"/suggest", "application/json", bytes.NewReader(body))
			if err != nil {
				b.Error(err)
				return
			}
			if resp.StatusCode != http.StatusOK {
				b.Errorf("status %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})
	b.StopTimer()
	if got := rt.forwards.Value(); got != cold {
		b.Fatalf("warm bench forwarded (%d -> %d)", cold, got)
	}
}
