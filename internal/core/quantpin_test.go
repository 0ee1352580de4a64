package core

import (
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// quantPins holds the hex-float PredictBatchProbs (p[0], p[1] per sequence)
// of the seeded batchTestModel(layers, 64) through Quantize, on
// raggedIDs(seed 100·layers+B, B, 1, 64). They were recorded at the last
// commit that still had a separate int8 forward stack (quant/infer.go),
// identically with and without -tags purego, so they pin the int8 path to
// the bit across the move onto the shared forward — and across anything
// later that is meant to leave its arithmetic alone.
var quantPins = []struct {
	layers, B int
	want      []string
}{
	{1, 1, []string{
		"0x1.959d4db18bb0fp-01", "0x1.a98ac939d13c1p-03",
	}},
	{1, 3, []string{
		"0x1.b5d2a377a971bp-01", "0x1.28b572215a395p-03",
		"0x1.6e7ed07a8c286p-01", "0x1.23025f0ae7af7p-02",
		"0x1.b6d54ebbaac68p-01", "0x1.24aac51154e6p-03",
	}},
	{1, 16, []string{
		"0x1.b44314bc6de0ep-01", "0x1.2ef3ad0e487c9p-03",
		"0x1.6fdedc961c65cp-01", "0x1.204246d3c7348p-02",
		"0x1.b5019a5e3b4f1p-01", "0x1.2bf9968712c3ap-03",
		"0x1.cd5def8789f61p-01", "0x1.951083c3b04efp-04",
		"0x1.c1130d498db67p-01", "0x1.f76795b3924cbp-04",
		"0x1.ab6ff0c72f221p-01", "0x1.52403ce34377dp-03",
		"0x1.b96fef7ef5b3ep-01", "0x1.1a4042042930cp-03",
		"0x1.4fc3fe4375acdp-01", "0x1.6078037914a66p-02",
		"0x1.996eb3d9739c2p-01", "0x1.9a45309a318fap-03",
		"0x1.aac75c6361759p-01", "0x1.54e28e727a29ep-03",
		"0x1.7b5aa72894f44p-01", "0x1.094ab1aed6178p-02",
		"0x1.c663805b6ffdep-01", "0x1.cce3fd2480116p-04",
		"0x1.b0f427d19a5a8p-01", "0x1.3c2f60b99696p-03",
		"0x1.c41dfbf3919d8p-01", "0x1.df1020637314ap-04",
		"0x1.7d1f74ae26001p-01", "0x1.05c116a3b3ffdp-02",
		"0x1.32a0924dc132cp-01", "0x1.9abedb647d9a7p-02",
	}},
	{2, 1, []string{
		"0x1.57807f6c12d39p-01", "0x1.50ff0127da58cp-02",
	}},
	{2, 3, []string{
		"0x1.9a20be2acf32ap-01", "0x1.977d0754c3355p-03",
		"0x1.4540bc4490b03p-01", "0x1.757e8776de9f9p-02",
		"0x1.9fe5868c97bcp-01", "0x1.8069e5cda1101p-03",
	}},
	{2, 16, []string{
		"0x1.67e97f070c5ccp-01", "0x1.302d01f1e7469p-02",
		"0x1.60fb78c24a699p-01", "0x1.3e090e7b6b2cep-02",
		"0x1.54e906a6b42d7p-01", "0x1.562df2b297a52p-02",
		"0x1.5e9f24875793p-01", "0x1.42c1b6f150da1p-02",
		"0x1.6265fb2e0e54p-01", "0x1.3b3409a3e357fp-02",
		"0x1.40c4b952191b3p-01", "0x1.7e768d5bcdc9ap-02",
		"0x1.96a78b4ef0d92p-01", "0x1.a561d2c43c9b7p-03",
		"0x1.6e540239021cfp-01", "0x1.2357fb8dfbc62p-02",
		"0x1.63347ca6b1e67p-01", "0x1.399706b29c332p-02",
		"0x1.9172ff1bfa857p-01", "0x1.ba34039015ea4p-03",
		"0x1.b48408ec61cd1p-02", "0x1.25bdfb89cf199p-01",
		"0x1.693ba25d3e572p-01", "0x1.2d88bb458351dp-02",
		"0x1.6f13ff6313ca4p-01", "0x1.21d80139d86b8p-02",
		"0x1.60c1f72f95b06p-01", "0x1.3e7c11a0d49f6p-02",
		"0x1.3a99f15e32f13p-01", "0x1.8acc1d439a1d8p-02",
		"0x1.6a6c64aab2f43p-01", "0x1.2b2736aa9a179p-02",
	}},
}

// TestQuantPredictPinned checks the int8 backend Quantize derives against
// quantPins.
func TestQuantPredictPinned(t *testing.T) {
	for _, pin := range quantPins {
		q, err := Quantize(batchTestModel(t, pin.layers, 64))
		if err != nil {
			t.Fatal(err)
		}
		batch := raggedIDs(rand.New(rand.NewSource(int64(100*pin.layers+pin.B))), pin.B, 1, 64, q.Cfg.Vocab)
		for i, p := range q.Classifier().PredictBatchProbs(batch) {
			for c := 0; c < 2; c++ {
				if got := strconv.FormatFloat(p[c], 'x', -1, 64); got != pin.want[2*i+c] {
					t.Errorf("quantized layers=%d B=%d seq %d class %d: %s, pinned %s",
						pin.layers, pin.B, i, c, got, pin.want[2*i+c])
				}
			}
		}
	}
}

// TestPredictBatchQuantAllocs is TestPredictBatchAllocs for both backends
// at exact counts: 1, the result, on every shape and either backend, so
// the count grows with neither batch size nor depth. The single-sequence
// call read 10 while the tensor pools were one size-agnostic pool each, and
// a buffer of the wrong size sitting on top cost it a capacity miss; with
// size classes every pooled buffer a call finds fits. Every round starts
// from emptied pools, as a fresh process would, and the gate holds the best
// of a few rounds: a collection landing inside a round lifts that round
// alone by two or three.
func TestPredictBatchQuantAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state pools")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis and inflates allocs/op")
	}
	const want = 1
	for _, c := range []struct{ layers, B int }{{1, 1}, {1, 16}, {2, 16}} {
		m := batchTestModel(t, c.layers, 64)
		q, err := Quantize(m)
		if err != nil {
			t.Fatal(err)
		}
		batch := raggedIDs(rand.New(rand.NewSource(3)), c.B, 12, 64, m.Cfg.Vocab)
		for _, b := range []Backend{m, q} {
			allocs := want + 1.0
			for round := 0; round < 5 && allocs > want; round++ {
				runtime.GC() // twice: a sync.Pool survives one collection as the victim cache
				runtime.GC()
				b.PredictBatch(batch) // prime the pools
				allocs = testing.AllocsPerRun(20, func() { b.PredictBatch(batch) })
			}
			if allocs > want {
				t.Errorf("%s layers=%d B=%d: PredictBatch allocates %.1f objects/op, want <= %d",
					b.BackendName(), c.layers, c.B, allocs, want)
			}
		}
	}
}

// TestPredictBatchIntoAllocs is TestPredictBatchQuantAllocs into a caller's
// slice: with the result's slice the caller's, a forward allocates nothing,
// on every shape and either backend.
func TestPredictBatchIntoAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate needs steady-state pools")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes escape analysis and inflates allocs/op")
	}
	const want = 0
	for _, c := range []struct{ layers, B int }{{1, 1}, {1, 16}, {2, 16}} {
		m := batchTestModel(t, c.layers, 64)
		q, err := Quantize(m)
		if err != nil {
			t.Fatal(err)
		}
		batch := raggedIDs(rand.New(rand.NewSource(3)), c.B, 12, 64, m.Cfg.Vocab)
		dst := make([]float64, c.B)
		for _, b := range []Backend{m, q} {
			allocs := want + 1.0
			for round := 0; round < 5 && allocs > want; round++ {
				runtime.GC() // twice: a sync.Pool survives one collection as the victim cache
				runtime.GC()
				b.PredictBatchInto(dst, batch) // prime the pools
				allocs = testing.AllocsPerRun(20, func() { b.PredictBatchInto(dst, batch) })
			}
			if allocs > want {
				t.Errorf("%s layers=%d B=%d: PredictBatchInto allocates %.1f objects/op, want %d",
					b.BackendName(), c.layers, c.B, allocs, want)
			}
		}
	}
}

// TestPredictBatchIntoParity: PredictBatchInto writes what PredictBatch
// returns, bit for bit, on TestPredictBatchParity's inputs, float64 and
// int8, into a dirty slice longer than the batch whose tail it leaves as it
// was; into one shorter than the batch it panics.
func TestPredictBatchIntoParity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, layers := range []int{1, 2} {
		m := batchTestModel(t, layers, 64)
		q, err := Quantize(m)
		if err != nil {
			t.Fatal(err)
		}
		for _, B := range []int{1, 3, 16, 40} {
			batch := raggedIDs(rng, B, 1, 64, m.Cfg.Vocab)
			for _, b := range []Backend{m, q} {
				want := b.PredictBatch(batch)
				dst := make([]float64, B+1)
				for i := range dst {
					dst[i] = -1
				}
				b.PredictBatchInto(dst, batch)
				for i, w := range want {
					if math.Float64bits(dst[i]) != math.Float64bits(w) {
						t.Errorf("%s layers=%d B=%d seq %d: PredictBatchInto %v, PredictBatch %v",
							b.BackendName(), layers, B, i, dst[i], w)
					}
				}
				if dst[B] != -1 {
					t.Errorf("%s layers=%d B=%d: the slot past the batch was written: %v", b.BackendName(), layers, B, dst[B])
				}
			}
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Error("PredictBatchInto into a slice shorter than the batch should panic")
				}
			}()
			m.PredictBatchInto(make([]float64, 1), raggedIDs(rng, 2, 1, 64, m.Cfg.Vocab))
		}()
	}
}
