package tier

import (
	"bytes"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/api"
	"pragformer/internal/serve"
)

// TestTierScanGolden is the CI tier smoke: two REAL replicas (demo-trained
// engines, the same recipe that produced examples/scantree/golden.json)
// behind a router, the fixture tree scanned through the fleet on both
// backends. The stable report must be byte-identical to the golden file,
// and a warm second pass must be answered entirely by the shared verdict
// store — zero forwards fleet-wide.
//
// Demo training takes real time, so the test is opt-in:
//
//	PRAGFORMER_TIER_SMOKE=1 go test -run TestTierScanGolden ./internal/tier/
func TestTierScanGolden(t *testing.T) {
	if os.Getenv("PRAGFORMER_TIER_SMOKE") == "" {
		t.Skip("set PRAGFORMER_TIER_SMOKE=1 to run the tier golden smoke (trains demo models)")
	}

	// The golden fixture's model: the demo defaults (seed 1, corpus 1000,
	// 5 epochs) — same artifacts `pragformer scan` demo mode trains.
	models, err := advisor.TrainDemo(advisor.DemoConfig{Seed: 1, Total: 1000, Epochs: 5})
	if err != nil {
		t.Fatal(err)
	}

	files := fixtureFiles(t)
	golden, err := os.ReadFile(filepath.Join("..", "..", "examples", "scantree", "golden.json"))
	if err != nil {
		t.Fatal(err)
	}

	for _, backend := range []string{"float64", "int8"} {
		t.Run(backend, func(t *testing.T) {
			// Two replicas over one trained bundle (engines only read it;
			// backend conversion copies).
			var urls []string
			for i := 0; i < 2; i++ {
				e, err := serve.New(models, serve.Config{
					MaxBatch: 8, Backend: backend,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(e.Close)
				srv := httptest.NewServer(e.Handler())
				t.Cleanup(srv.Close)
				urls = append(urls, srv.URL)
			}
			rt, err := New(Config{
				Replicas: urls, Backend: backend,
				ModelID: "demo:seed=1,total=1000,epochs=5",
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(rt.Close)
			h := rt.Handler()

			body := api.ScanRequest{Files: files, Stable: true}
			cold := postJSON(t, h, "/scan", body)
			if cold.Code != 200 {
				t.Fatalf("cold scan: %d %s", cold.Code, cold.Body)
			}
			if !bytes.Equal(cold.Body.Bytes(), golden) {
				t.Fatalf("tier scan (%s) drifted from golden:\n--- got ---\n%s", backend, cold.Body)
			}

			// Warm pass: the shared store answers every loop fleet-wide.
			forwardsBefore := rt.forwards.Value()
			warm := postJSON(t, h, "/scan", body)
			if warm.Code != 200 {
				t.Fatalf("warm scan: %d %s", warm.Code, warm.Body)
			}
			if got := rt.forwards.Value(); got != forwardsBefore {
				t.Fatalf("warm scan forwarded (%d -> %d); store read-through broken", forwardsBefore, got)
			}
			if !bytes.Equal(warm.Body.Bytes(), golden) {
				t.Fatal("warm tier scan drifted from golden")
			}

			// SARIF renders from the same verdicts: warm == cold.
			sbody := api.ScanRequest{Files: files, Format: "sarif"}
			sc := postJSON(t, h, "/scan", sbody)
			sw := postJSON(t, h, "/scan", sbody)
			if sc.Code != 200 || sw.Code != 200 {
				t.Fatalf("sarif scans: %d / %d", sc.Code, sw.Code)
			}
			if !bytes.Equal(sc.Body.Bytes(), sw.Body.Bytes()) {
				t.Fatal("warm SARIF differs from cold")
			}
		})
	}
}

// TestTierRollingReloadLive exercises the rolling reload against real
// engines: file-backed replicas reload mid-traffic with zero dropped
// requests, and the verdicts a scan left in the router's store are gone
// once the fleet has rolled. Gated with the smoke flag (it trains a demo
// model too).
func TestTierRollingReloadLive(t *testing.T) {
	if os.Getenv("PRAGFORMER_TIER_SMOKE") == "" {
		t.Skip("set PRAGFORMER_TIER_SMOKE=1 to run the live rolling-reload smoke")
	}
	// A small bundle is enough here: this smoke is about the drain/reload
	// choreography, not verdict quality.
	models, err := advisor.TrainDemo(advisor.DemoConfig{Seed: 7, Total: 120, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for i := 0; i < 2; i++ {
		e, err := serve.New(models, serve.Config{
			MaxBatch: 4,
			Source:   func() (*advisor.Models, error) { return models, nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		srv := httptest.NewServer(e.Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	rt, err := New(Config{Replicas: urls, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	h := rt.Handler()

	// Adopting the fleet's backend rolls the store once; scan after it.
	waitFor(t, "backend adoption", func() bool { return rt.backendLabel() != "" })
	if rec := postJSON(t, h, "/scan", api.ScanRequest{Files: fixtureFiles(t)}); rec.Code != 200 {
		t.Fatalf("scan: %d %s", rec.Code, rec.Body)
	}
	if n, _ := storeGauges(t, rt); n < 1 {
		t.Fatalf("pf_store_len = %v after a scan, want >= 1", n)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	failures := 0
	var mu sync.Mutex
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			codes := testCodes(8)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec := postJSON(t, h, "/predict", api.PredictRequest{Code: codes[(w+i)%len(codes)]})
				if rec.Code != 200 {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}(w)
	}
	rec := postJSON(t, h, "/reload", nil)
	close(stop)
	wg.Wait()
	if rec.Code != 200 {
		t.Fatalf("rolling reload: %d %s", rec.Code, rec.Body)
	}
	if failures != 0 {
		t.Fatalf("%d requests failed during the live rolling reload", failures)
	}
	if n, _ := storeGauges(t, rt); n != 0 {
		t.Fatalf("pf_store_len = %v after the roll, want 0", n)
	}
}

// fixtureFiles loads examples/scantree the way scan.Dir's walker would:
// every .c file, slash-relative paths.
func fixtureFiles(t *testing.T) []api.ScanFile {
	t.Helper()
	root := filepath.Join("..", "..", "examples", "scantree")
	var files []api.ScanFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".c") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		files = append(files, api.ScanFile{Path: filepath.ToSlash(rel), Source: string(data)})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("fixture tree is empty")
	}
	return files
}
