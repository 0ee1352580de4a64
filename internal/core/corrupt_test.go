package core

// Corrupt/truncated model-artifact table tests: every mutilation of the
// gob wire format must produce a descriptive error — never a panic and
// never a silently partial load.

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// wireFile dumps a model into its modelFile form for mutilation.
func wireFile(t *testing.T, m *PragFormer) modelFile {
	t.Helper()
	mf := modelFile{Version: modelFormatVersion, Cfg: m.Cfg}
	for _, p := range m.Params() {
		mf.Names = append(mf.Names, p.Name)
		mf.Shapes = append(mf.Shapes, [2]int{p.W.Rows, p.W.Cols})
		mf.Data = append(mf.Data, append([]float64(nil), p.W.Data...))
	}
	return mf
}

// toLegacy rewrites a current wire file into the version 0/1 layout, which
// carried the pretraining head ahead of fc1/fc2.
func toLegacy(mf *modelFile, version int) {
	mf.Version = version
	at, d, vocab := len(mf.Names)-4, mf.Cfg.D, mf.Cfg.Vocab
	mf.Names = slices.Insert(mf.Names, at, "mlm.W", "mlm.b")
	mf.Shapes = slices.Insert(mf.Shapes, at, [2]int{d, vocab}, [2]int{1, vocab})
	mf.Data = slices.Insert(mf.Data, at, make([]float64, d*vocab), make([]float64, vocab))
}

func encodeWire(t *testing.T, mf modelFile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(mf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The config cases damage the header rather than the tensors: a Cfg that
// implies terabytes must fail with an error naming what disagrees. Before
// Cfg was held against the file's own tensors first, New(Cfg) ran out of
// memory — fatal, not a panic — and took a serving replica down on POST
// /reload. Every failed Load is also bounded in what it may allocate.
func TestLoadRejectsCorruptModelFiles(t *testing.T) {
	m := mustNew(t, tinyConfig(), 17)

	cases := []struct {
		name   string
		mutate func(*modelFile)
		want   string // substring the error must carry
	}{
		{"missing data tensor", func(mf *modelFile) { mf.Data = mf.Data[:len(mf.Data)-1] }, "names"},
		{"missing name", func(mf *modelFile) { mf.Names = mf.Names[:len(mf.Names)-1] }, "names"},
		{"missing shape", func(mf *modelFile) { mf.Shapes = mf.Shapes[:len(mf.Shapes)-1] }, "shapes"},
		{"renamed tensor", func(mf *modelFile) { mf.Names[2] = "bogus" }, "name"},
		{"wrong shape", func(mf *modelFile) { mf.Shapes[1] = [2]int{1, 1} }, "shape"},
		{"truncated weight vector", func(mf *modelFile) { mf.Data[3] = mf.Data[3][:1] }, "truncated"},
		{"newer format version", func(mf *modelFile) { mf.Version = modelFormatVersion + 7 }, "newer"},
		{"too few tensors", func(mf *modelFile) {
			mf.Names, mf.Shapes, mf.Data = mf.Names[:5], mf.Shapes[:5], mf.Data[:5]
		}, "too few"},
		{"too many tensors", func(mf *modelFile) {
			mf.Names = append(mf.Names, "extra")
			mf.Shapes = append(mf.Shapes, [2]int{1, 1})
			mf.Data = append(mf.Data, []float64{0})
		}, "tensors"},
		{"config: huge vocab", func(mf *modelFile) { mf.Cfg.Vocab = 1 << 40 }, `"emb.tok" shape`},
		{"config: huge vocab, version 1", func(mf *modelFile) { toLegacy(mf, 1); mf.Cfg.Vocab = 1 << 40 }, `"mlm.w" shape`},
		{"config: huge max len", func(mf *modelFile) { mf.Cfg.MaxLen = 1 << 40 }, `"emb.pos" shape`},
		{"config: huge layers", func(mf *modelFile) { mf.Cfg.Layers = 1 << 40 }, "name"},
		{"config: huge d", func(mf *modelFile) { mf.Cfg.D = 1 << 40; mf.Cfg.Heads = 1 << 20 }, `"emb.tok" shape`},
		{"config: huge ffn", func(mf *modelFile) { mf.Cfg.FFHidden = 1 << 40 }, "shape"},
		{"config: huge dims, shapes agreeing", func(mf *modelFile) {
			mf.Cfg.Vocab, mf.Cfg.D, mf.Cfg.Heads = 1<<32, 1<<32, 1
			mf.Shapes[0] = [2]int{1 << 32, 1 << 32} // rows*cols wraps to 0
			mf.Data[0] = nil
		}, "truncated"},
		{"config: negative max len", func(mf *modelFile) { mf.Cfg.MaxLen = -16 }, "invalid dims"},
		{"config: negative ffn", func(mf *modelFile) { mf.Cfg.FFHidden = -16 }, "invalid dims"},
		{"config: negative vocab", func(mf *modelFile) { mf.Cfg.Vocab = -50 }, "vocab"},
		{"config and shape agree, data does not", func(mf *modelFile) {
			mf.Cfg.MaxLen = 32
			mf.Shapes[1] = [2]int{32, 8}
		}, "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mf := wireFile(t, m)
			tc.mutate(&mf)
			raw := encodeWire(t, mf)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Load(bytes.NewReader(raw))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("corrupt model file loaded without error")
			}
			if !strings.Contains(strings.ToLower(err.Error()), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > uint64(8*len(raw)) {
				t.Errorf("failed Load of a %d-byte file allocated %d bytes", len(raw), got)
			}
		})
	}
}

func TestLoadRejectsTruncatedStream(t *testing.T) {
	m := mustNew(t, tinyConfig(), 18)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frac := range []int{2, 4, 10} {
		if _, err := Load(bytes.NewReader(buf.Bytes()[:buf.Len()/frac])); err == nil {
			t.Fatalf("stream truncated to 1/%d loaded without error", frac)
		}
	}
}

// TestLoadVersionZeroCompat pins backward compatibility: files written by
// the pre-versioning format (no Version field — gob decodes it as 0) must
// keep loading.
func TestLoadVersionZeroCompat(t *testing.T) {
	m := mustNew(t, tinyConfig(), 19)
	mf := wireFile(t, m)
	toLegacy(&mf, 0) // gob omits zero fields: byte-identical to the old format
	m2, err := Load(bytes.NewReader(encodeWire(t, mf)))
	if err != nil {
		t.Fatalf("version-0 file rejected: %v", err)
	}
	ids := []int{2, 9, 8, 7}
	if predictOne(m, ids) != predictOne(m2, ids) {
		t.Fatal("version-0 load changed predictions")
	}
}

// TestLoadRejectsPFQNT loads testdata/quant_l2_v1.pfq, an int8 artifact in
// the PFQNT format an older `pragformer quantize` wrote: it must fail with
// an error that names the format and says what to load instead, not with a
// gob decode error.
func TestLoadRejectsPFQNT(t *testing.T) {
	_, err := LoadFile("testdata/quant_l2_v1.pfq")
	if err == nil {
		t.Fatal("a PFQNT artifact loaded as a float model")
	}
	for _, want := range []string{"PFQNT", "float model", "-backend int8"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if strings.Contains(err.Error(), "decode") {
		t.Errorf("error %q is a decode error", err)
	}
}
