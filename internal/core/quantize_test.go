package core

import (
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/tensor"
)

// maxAbsDiff returns the largest elementwise |a-b| over two equal-shape
// matrices.
func maxAbsDiff(t *testing.T, a, b *tensor.Matrix) float64 {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	m := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > m {
			m = d
		}
	}
	return m
}

// offsOf computes the ragged batch layout of a sequence list.
func offsOf(batch [][]int) ([][]int, []int) {
	offs := make([]int, len(batch)+1)
	for i, ids := range batch {
		offs[i+1] = offs[i] + len(ids)
	}
	return batch, offs
}

// TestQuantizePerLayerParity runs the one inference forward (nn/infer.go)
// over the float weights and over their int8 quantization, layer by layer:
// both weight formats get the *same* float input per layer, so each bound
// localizes that one layer's quantization error instead of compounding the
// stack. The bounds are ~2x the empirically observed error at this scale
// (deterministic: fixed seeds, exact forward arithmetic) — tight enough
// that a kernel or layout bug, which produces O(1) garbage, can never hide
// inside them.
func TestQuantizePerLayerParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, layers := range []int{1, 2} {
		m := batchTestModel(t, layers, 64)
		q, err := Quantize(m)
		if err != nil {
			t.Fatal(err)
		}
		fc, qc := m.classifier(), q.Classifier()
		for _, B := range []int{1, 3, 16} {
			seqs, offs := offsOf(raggedIDs(rng, B, 1, 64, m.Cfg.Vocab))

			// Embeddings are carried in float: bit-exact.
			x := tensor.New(offs[B], m.Cfg.D)
			fc.EmbedBatchInto(x, seqs)
			// Feed the same embedding through the quantized tables.
			qx := tensor.New(offs[B], m.Cfg.D)
			qc.EmbedBatchInto(qx, seqs)
			if d := maxAbsDiff(t, x, qx); d != 0 {
				t.Errorf("layers=%d B=%d: embedding diff %g, want bit-exact", layers, B, d)
			}

			// Each encoder block, on the float path's layer input.
			for l := 0; l < layers; l++ {
				fb, qb := fc.Blocks[l].InferView(), qc.Blocks[l].InferView()
				want := fb.InferBatch(x, offs)
				got := qb.InferBatch(x, offs)
				if d := maxAbsDiff(t, want, got); d > 0.15 {
					t.Errorf("layers=%d B=%d block %d: max abs err %g > 0.15", layers, B, l, d)
				}
				// CLS-pruned variant against the CLS rows of the full one.
				wantCLS := fb.InferCLS(x, offs)
				gotCLS := qb.InferCLS(x, offs)
				if d := maxAbsDiff(t, wantCLS, gotCLS); d > 0.15 {
					t.Errorf("layers=%d B=%d block %d CLS: max abs err %g > 0.15", layers, B, l, d)
				}
				tensor.PutMatrix(wantCLS)
				tensor.PutMatrix(gotCLS)
				tensor.PutMatrix(got)
				tensor.PutMatrix(x)
				x = want // the float activations remain the shared reference
			}
			tensor.PutMatrix(x)

			// End to end: positive-class probabilities close, labels
			// agreeing except where the float path itself is on the fence.
			pf := m.PredictBatch(seqs)
			pq := q.PredictBatch(seqs)
			for i := range pf {
				if d := math.Abs(pf[i] - pq[i]); d > 0.05 {
					t.Errorf("layers=%d B=%d seq %d: prob diff %g > 0.05 (float %g, int8 %g)",
						layers, B, i, d, pf[i], pq[i])
				}
				if (pf[i] > 0.5) != (pq[i] > 0.5) && math.Abs(pf[i]-0.5) > 0.05 {
					t.Errorf("layers=%d B=%d seq %d: label flipped on a confident prediction (float %g, int8 %g)",
						layers, B, i, pf[i], pq[i])
				}
			}
		}
	}
}

// TestQuantPredictSingleMatchesBatch pins a sequence's int8 probability as
// independent of its batch: a batch of one gives it bit-exactly, as the
// float backend does.
func TestQuantPredictSingleMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	m := batchTestModel(t, 2, 64)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	batch := raggedIDs(rng, 5, 2, 64, m.Cfg.Vocab)
	probs := q.PredictBatch(batch)
	for i, ids := range batch {
		if p := predictOne(q, ids); p != probs[i] {
			t.Errorf("seq %d: batch of one %v != batch %v", i, p, probs[i])
		}
	}
}

// TestQuantTruncation asserts over-long inputs truncate to MaxLen exactly
// as the float batch path does.
func TestQuantTruncation(t *testing.T) {
	m := batchTestModel(t, 1, 16)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	long := make([]int, 40)
	long[0] = 2
	for i := 1; i < len(long); i++ {
		long[i] = 4 + i%100
	}
	short := long[:16]
	if got, want := predictOne(q, long), predictOne(q, short); got != want {
		t.Errorf("truncated predict %v != explicit %v", got, want)
	}
}

// TestQuantConcurrent hammers one quantized model from several goroutines
// so the race detector can see the int8 forward path is read-only — the
// serving layer shares one quantized model across replica workers.
func TestQuantConcurrent(t *testing.T) {
	m := batchTestModel(t, 2, 32)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	batch := raggedIDs(rand.New(rand.NewSource(23)), 8, 2, 32, m.Cfg.Vocab)
	want := q.PredictBatch(batch)
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for rep := 0; rep < 10; rep++ {
				got := q.PredictBatch(batch)
				for i := range got {
					if got[i] != want[i] {
						ok = false
					}
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 4; g++ {
		if !<-done {
			t.Error("concurrent quantized PredictBatch diverged")
		}
	}
}

// TestBackendSurface pins the Backend metadata of both implementations.
func TestBackendSurface(t *testing.T) {
	m := batchTestModel(t, 1, 64)
	var b Backend = m
	if b.BackendName() != BackendFloat64 || b.VocabSize() != m.Cfg.Vocab || b.MaxSeqLen() != 64 {
		t.Errorf("float backend surface: %s/%d/%d", b.BackendName(), b.VocabSize(), b.MaxSeqLen())
	}
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	b = q
	if b.BackendName() != BackendInt8 || b.VocabSize() != m.Cfg.Vocab || b.MaxSeqLen() != 64 {
		t.Errorf("int8 backend surface: %s/%d/%d", b.BackendName(), b.VocabSize(), b.MaxSeqLen())
	}
}

// BenchmarkPredictBatchQuant measures the same 16-snippet workload as
// BenchmarkPredictBatch through the int8 backend, for measuring while
// working; the number of record is quant.predict_batch16_us (beside
// core.predict_batch16_us) from `bash bench/run.sh`.
func BenchmarkPredictBatchQuant(b *testing.B) {
	m, batch := benchBatch(b)
	q, err := Quantize(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.PredictBatch(batch)
	}
}

// TestQuantizeSharesEmbeddingTables pins the aliasing rule stated on
// Quantize: an int8 bundle reads the float model's own token and position
// tables (no second copy of nearly all the weights).
func TestQuantizeSharesEmbeddingTables(t *testing.T) {
	m := batchTestModel(t, 1, 32)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	if &q.Tok.Data[0] != &m.Emb.Tok.W.Data[0] || &q.Pos.Data[0] != &m.Emb.Pos.W.Data[0] {
		t.Error("Quantize copied the embedding tables; the bundle should read the float model's")
	}
}
