package core

import (
	"math/rand"
	"testing"
)

// batchTestModel builds a randomly initialized model — parity holds for any
// weights, so no training is needed.
func batchTestModel(t testing.TB, layers, maxLen int) *PragFormer {
	t.Helper()
	m, err := New(Config{Vocab: 200, MaxLen: maxLen, D: 32, Heads: 4, Layers: layers, Dropout: 0.1}, 42)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// raggedIDs generates n id sequences with lengths in [minLen, maxLen].
func raggedIDs(rng *rand.Rand, n, minLen, maxLen, vocab int) [][]int {
	out := make([][]int, n)
	for i := range out {
		T := minLen + rng.Intn(maxLen-minLen+1)
		ids := make([]int, T)
		ids[0] = 2 // [CLS], as tokenize.Vocab.Encode emits
		for t := 1; t < T; t++ {
			ids[t] = 4 + rng.Intn(vocab-4)
		}
		out[i] = ids
	}
	return out
}

// predictOne asks b about one sequence: a batch of one.
func predictOne(b Backend, ids []int) float64 { return b.PredictBatch([][]int{ids})[0] }

// singleProbs runs the training forward, forwardCls, in eval mode over one
// sequence and returns what it borrowed before handing back the
// probabilities.
func singleProbs(m *PragFormer, ids []int) [2]float64 {
	p := m.forwardCls(ids, false).prob
	m.borrows.Release()
	return p
}

// TestPredictBatchParity asserts bit-exact agreement between PredictBatch
// and the training forward, forwardCls, looped per sequence, across batch
// sizes, ragged lengths, and layer counts. A batch of 40 is larger than
// the forward's stack array of row offsets.
func TestPredictBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, layers := range []int{1, 2} {
		m := batchTestModel(t, layers, 64)
		for _, B := range []int{1, 3, 16, 40} {
			batch := raggedIDs(rng, B, 1, 64, m.Cfg.Vocab)
			got := m.PredictBatch(batch)
			probs := m.PredictBatchProbs(batch)
			if len(got) != B {
				t.Fatalf("layers=%d B=%d: got %d results", layers, B, len(got))
			}
			for i, ids := range batch {
				want := singleProbs(m, ids)[1]
				if got[i] != want {
					t.Errorf("layers=%d B=%d seq %d (len %d): batch %v != single %v",
						layers, B, i, len(ids), got[i], want)
				}
				if probs[i][1] != want {
					t.Errorf("layers=%d B=%d seq %d: probs[1] %v != %v", layers, B, i, probs[i][1], want)
				}
			}
		}
	}
}

// TestPredictBatchProbsLoss asserts that both class probabilities match the
// single-example path bit-for-bit (the batched evaluator derives losses
// from them).
func TestPredictBatchProbsLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := batchTestModel(t, 1, 64)
	batch := raggedIDs(rng, 5, 2, 40, m.Cfg.Vocab)
	probs := m.PredictBatchProbs(batch)
	for i, ids := range batch {
		if p := singleProbs(m, ids); probs[i] != p {
			t.Errorf("seq %d: batch probs %v != single %v", i, probs[i], p)
		}
	}
}

// TestPredictBatchTruncation asserts over-long sequences are truncated to
// MaxLen exactly as the training forward does, alone and between shorter
// sequences of one ragged batch.
func TestPredictBatchTruncation(t *testing.T) {
	m := batchTestModel(t, 1, 16)
	long := make([]int, 40)
	long[0] = 2
	for i := 1; i < len(long); i++ {
		long[i] = 4 + i%100
	}
	for _, batch := range [][][]int{{long}, {long[:5], long, long[:16], long[:17]}} {
		got := m.PredictBatch(batch)
		for i, ids := range batch {
			if want := singleProbs(m, ids)[1]; got[i] != want {
				t.Errorf("len %d in a batch of %d: %v != single %v", len(ids), len(batch), got[i], want)
			}
		}
	}
}

// TestPredictBatchEmpty covers the degenerate shapes.
func TestPredictBatchEmpty(t *testing.T) {
	m := batchTestModel(t, 1, 16)
	if got := m.PredictBatch(nil); len(got) != 0 {
		t.Errorf("PredictBatch(nil) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("PredictBatch with an empty sequence should panic")
		}
	}()
	m.PredictBatch([][]int{{}})
}

// TestPredictBatchRaggedEdges pins the strided attention layout on the
// degenerate ragged shapes: a lone [CLS] token (T=1, where a head's score
// matrix is 1×1 and softmax is the identity), a batch of nothing but
// single-token sequences, exact-MaxLen sequences, and over-length inputs
// that truncate — each bit-identical to the single-sequence path (the
// training forward for float64, a batch of one for int8), on both backends.
func TestPredictBatchRaggedEdges(t *testing.T) {
	m := batchTestModel(t, 2, 16)
	q, err := Quantize(m)
	if err != nil {
		t.Fatal(err)
	}
	full := make([]int, 16)
	over := make([]int, 40)
	full[0], over[0] = 2, 2
	for i := 1; i < len(full); i++ {
		full[i] = 4 + i
	}
	for i := 1; i < len(over); i++ {
		over[i] = 4 + i%100
	}
	batches := map[string][][]int{
		"B=1 single token":  {{2}},
		"all single token":  {{2}, {2}, {2}},
		"single+full+over":  {{2}, full, over},
		"exact MaxLen only": {full, full},
	}
	for name, batch := range batches {
		single := map[Backend]func([]int) float64{
			m: func(ids []int) float64 { return singleProbs(m, ids)[1] },
			q: func(ids []int) float64 { return predictOne(q, ids) },
		}
		for backend, want := range single {
			got := backend.PredictBatch(batch)
			if len(got) != len(batch) {
				t.Fatalf("%s/%s: %d results for %d sequences", name, backend.BackendName(), len(got), len(batch))
			}
			for i, ids := range batch {
				if w := want(ids); got[i] != w {
					t.Errorf("%s/%s seq %d: batch %v != single %v",
						name, backend.BackendName(), i, got[i], w)
				}
			}
		}
	}
}

// TestPredictBatchAllocs is the allocation gate for the pooled forward
// path: the 16-sequence benchmark workload must not regress toward
// per-call matmul allocations (seed level was 13 allocs/op; the pooled
// kernels, run on the calling goroutine, made 4, and with the batch's row
// offsets on the stack and the probabilities written straight into the
// result the result is the one allocation left).
func TestPredictBatchAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state pools")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis and inflates allocs/op")
	}
	m := batchTestModel(t, 1, 64)
	batch := raggedIDs(rand.New(rand.NewSource(3)), 16, 12, 64, m.Cfg.Vocab)
	m.PredictBatch(batch) // prime the pools
	allocs := testing.AllocsPerRun(20, func() { m.PredictBatch(batch) })
	if allocs > 1 {
		t.Errorf("PredictBatch allocates %.1f objects/op, want <= 1 (pool regression)", allocs)
	}
}

// TestPredictBatchConcurrent hammers one model from several goroutines so
// the race detector can see the forward path is read-only.
func TestPredictBatchConcurrent(t *testing.T) {
	m := batchTestModel(t, 2, 32)
	batch := raggedIDs(rand.New(rand.NewSource(9)), 8, 2, 32, m.Cfg.Vocab)
	want := m.PredictBatch(batch)
	done := make(chan bool)
	for g := 0; g < 4; g++ {
		go func() {
			ok := true
			for rep := 0; rep < 10; rep++ {
				got := m.PredictBatch(batch)
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
			t.Error("concurrent PredictBatch diverged from sequential result")
		}
	}
}

// benchBatch is the fixed 16-sequence workload shared by the two
// benchmarks below, at the Fast-pipeline model scale.
func benchBatch(b *testing.B) (*PragFormer, [][]int) {
	m := batchTestModel(b, 1, 64)
	return m, raggedIDs(rand.New(rand.NewSource(3)), 16, 12, 64, m.Cfg.Vocab)
}

// BenchmarkPredictSequential16 is the baseline: 16 snippets through the
// per-example training forward, caches and all.
func BenchmarkPredictSequential16(b *testing.B) {
	m, batch := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, ids := range batch {
			singleProbs(m, ids)
		}
	}
}

// BenchmarkPredictBatch measures the same 16 snippets through one
// PredictBatch call, for measuring while working; the numbers of record are
// core.predict_batch16_us and core.predict_allocs_per_call from
// `bash bench/run.sh`.
func BenchmarkPredictBatch(b *testing.B) {
	m, batch := benchBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.PredictBatch(batch)
	}
}
