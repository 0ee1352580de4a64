package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/scan"
)

const scanFixture = "../../examples/scantree"

// demoArgs keep the in-test demo training small; the CI golden smoke runs
// the full-size defaults against examples/scantree/golden.json.
func demoArgs(extra ...string) []string {
	base := []string{
		"-dir", scanFixture, "-train-total", "150", "-train-epochs", "1", "-seed", "1",
		"-workers", "4",
	}
	return append(base, extra...)
}

// TestScanCLIBackendAgreement is the label-agreement gate at command
// level: the same fixture tree scanned on the float64 and int8 backends
// must produce byte-identical stable reports.
func TestScanCLIBackendAgreement(t *testing.T) {
	dir := t.TempDir()
	f64 := filepath.Join(dir, "f64.json")
	i8 := filepath.Join(dir, "i8.json")
	cmdScan(demoArgs("-stable", "-backend", "float64", "-out", f64))
	cmdScan(demoArgs("-stable", "-backend", "int8", "-out", i8))

	a, err := os.ReadFile(f64)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(i8)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || !bytes.Equal(a, b) {
		t.Fatalf("float64 and int8 stable reports differ:\n--- float64 ---\n%s\n--- int8 ---\n%s", a, b)
	}
	var rep scan.Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Counters.Unique != 16 || rep.Counters.Skipped != 1 {
		t.Errorf("counters = %+v", rep.Counters)
	}
}

// TestScanCLIWarmCache re-runs the same scan against a persistent cache
// and asserts the acceptance property: zero model forwards the second
// time, same report.
func TestScanCLIWarmCache(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "scan.cache")
	cold := filepath.Join(dir, "cold.json")
	warm := filepath.Join(dir, "warm.json")
	cmdScan(demoArgs("-cache", cache, "-out", cold))
	cmdScan(demoArgs("-cache", cache, "-out", warm))

	read := func(path string) scan.Report {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var rep scan.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	repCold, repWarm := read(cold), read(warm)
	if repCold.Counters.Inferred == 0 {
		t.Fatal("cold scan inferred nothing")
	}
	if repWarm.Counters.Inferred != 0 {
		t.Errorf("warm scan inferred %d, want 0", repWarm.Counters.Inferred)
	}
	if repWarm.Counters.CacheHits != repCold.Counters.Inferred {
		t.Errorf("warm cache hits = %d, want %d", repWarm.Counters.CacheHits, repCold.Counters.Inferred)
	}
	a, _ := repCold.Stable().JSON()
	b, _ := repWarm.Stable().JSON()
	if !bytes.Equal(a, b) {
		t.Error("warm report differs from cold report")
	}
}

func TestScanCLISARIF(t *testing.T) {
	out := filepath.Join(t.TempDir(), "report.sarif")
	cmdScan(demoArgs("-format", "sarif", "-out", out))
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatal(err)
	}
	if log.Version != "2.1.0" || log.Schema == "" || len(log.Runs) != 1 {
		t.Errorf("sarif header = %q %q, runs %d", log.Schema, log.Version, len(log.Runs))
	}
}

// TestScanCLIModelArtifact covers the one artifact path end to end: the
// demo classifier trained at demoArgs' settings, saved as the float model
// and vocabulary files `pragformer train` writes and scanned through
// -model/-vocab, gives the demo-mode scan's stable report byte for byte on
// both backends. At -backend int8 the int8 model is derived from the float
// file at load time.
func TestScanCLIModelArtifact(t *testing.T) {
	models, err := advisor.TrainDemo(advisor.DemoConfig{Seed: 1, Total: 150, Epochs: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	modelPath, vocabPath := filepath.Join(dir, "directive.gob"), filepath.Join(dir, "vocab.txt")
	if err := models.Directive.(*core.PragFormer).SaveFile(modelPath); err != nil {
		t.Fatal(err)
	}
	if err := models.Vocab.SaveFile(vocabPath); err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{core.BackendInt8, core.BackendFloat64} {
		demoOut := filepath.Join(dir, "demo-"+backend+".json")
		fileOut := filepath.Join(dir, "file-"+backend+".json")
		cmdScan(demoArgs("-stable", "-backend", backend, "-out", demoOut))
		cmdScan([]string{"-dir", scanFixture, "-model", modelPath, "-vocab", vocabPath,
			"-workers", "4", "-stable", "-backend", backend, "-out", fileOut})
		want, err := os.ReadFile(demoOut)
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(fileOut)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 || !bytes.Equal(got, want) {
			t.Errorf("%s: scan of the saved artifact differs from the demo-mode scan:\n--- artifact ---\n%s\n--- demo ---\n%s",
				backend, got, want)
		}
	}
}
