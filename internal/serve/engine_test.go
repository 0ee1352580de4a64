package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/obs"
	"pragformer/internal/tokenize"
)

// testModels builds an advisor bundle around a randomly initialized
// directive classifier — parity and engine mechanics don't need training.
func testModels(t testing.TB) *advisor.Models {
	t.Helper()
	v := tokenize.BuildVocab([][]string{{"for", "(", "i", "=", "0", ";", "<", "n", "+", ")", "a", "[", "]", "*", "b"}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 100, MaxLen: 64, D: 32, Heads: 4, Layers: 1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	return &advisor.Models{Directive: m, Vocab: v}
}

// randIDs builds n id sequences like tokenize.Vocab.Encode would: [CLS]
// followed by in-vocabulary ids.
func randIDs(rng *rand.Rand, n, maxLen, vocab int) [][]int {
	out := make([][]int, n)
	for i := range out {
		T := 2 + rng.Intn(maxLen-2)
		ids := make([]int, T)
		ids[0] = tokenize.CLS
		for t := 1; t < T; t++ {
			ids[t] = tokenize.NumSpecials + rng.Intn(vocab-tokenize.NumSpecials)
		}
		out[i] = ids
	}
	return out
}

// predictOne asks b directly about one sequence: the reference the engine's
// answers are held to.
func predictOne(b core.Backend, ids []int) float64 { return b.PredictBatch([][]int{ids})[0] }

// TestEnginePredictParity hammers the engine from concurrent clients and
// checks every answer bit-exactly against the direct single-model path.
func TestEnginePredictParity(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 8, Replicas: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	pool := randIDs(rand.New(rand.NewSource(13)), 30, 64, models.Directive.VocabSize())
	want := make([]float64, len(pool))
	for i, ids := range pool {
		want[i] = predictOne(models.Directive, ids)
	}

	const clients, perClient = 8, 20
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + c)))
			for r := 0; r < perClient; r++ {
				i := rng.Intn(len(pool))
				got, err := e.Predict(context.Background(), pool[i])
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("seq %d: engine %v != direct %v", i, got, want[i])
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	s := e.Stats().Predict
	if s.Requests != clients*perClient {
		t.Errorf("requests = %d, want %d", s.Requests, clients*perClient)
	}
	if s.Items+s.CacheHits != s.Requests {
		t.Errorf("items %d + hits %d != requests %d", s.Items, s.CacheHits, s.Requests)
	}
}

// TestEngineCoalesces queues requests behind a busy worker and checks that
// they share batches.
func TestEngineCoalesces(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 16, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release, started := holdPredict(e)

	pool := randIDs(rand.New(rand.NewSource(14)), 6, 32, models.Directive.VocabSize())
	var wg sync.WaitGroup
	for i, ids := range pool {
		wg.Add(1)
		go func(ids []int) {
			defer wg.Done()
			if _, err := e.Predict(context.Background(), ids); err != nil {
				t.Error(err)
			}
		}(ids)
		if i == 0 {
			<-started // the worker is busy with the first request
		}
	}
	waitQueued(t, e, len(pool))
	close(release)
	wg.Wait()
	s := e.Stats().Predict
	if s.Batches >= uint64(len(pool)) {
		t.Errorf("no coalescing: %d batches for %d requests", s.Batches, len(pool))
	}
	if s.AvgBatch() < 2 {
		t.Errorf("avg batch %v, want >= 2", s.AvgBatch())
	}
}

// holdPredict makes every predict batch of e wait until release is closed,
// then run on e's model as before. started receives each batch's size as
// its worker picks it up; its buffer holds more batches than any test
// runs, so a worker never blocks reporting one.
func holdPredict(e *Engine) (release chan struct{}, started chan int) {
	release, started = make(chan struct{}), make(chan int, 64)
	run := *e.predict.run.Load()
	e.predict.setRun(func(batch [][]int) ([]float64, []obs.Stage) {
		started <- len(batch)
		<-release
		return run(batch)
	})
	return release, started
}

// waitQueued waits until n predict requests are in flight, then a moment
// longer: a request counts as in flight just before do sends it to the
// queue, and the send itself is not observable from outside the batcher.
func waitQueued(t *testing.T, e *Engine, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Predict.InFlight < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", e.Stats().Predict.InFlight, n)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
}

// TestIdleDispatchDoesNotWait: a request that finds the worker idle is
// forwarded at once; the worker waits for no company.
func TestIdleDispatchDoesNotWait(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := e.Predict(ctx, []int{tokenize.CLS, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("a lone request on an idle engine took %v: it sat out the batching window", d)
	}
}

// TestBusyWorkerCoalesces holds the one worker on a first request and
// queues more behind it: once released, up to MaxBatch of them leave as one
// batch, and MaxBatch splits a longer queue.
func TestBusyWorkerCoalesces(t *testing.T) {
	models := testModels(t)
	pool := randIDs(rand.New(rand.NewSource(15)), 10, 32, models.Directive.VocabSize())
	for _, tc := range []struct {
		maxBatch, queued int
		want             []int
	}{
		{maxBatch: 8, queued: 8, want: []int{1, 8}},
		{maxBatch: 8, queued: 5, want: []int{1, 5}},
		{maxBatch: 4, queued: 10, want: []int{1, 4, 4, 2}},
	} {
		e, err := New(models, Config{MaxBatch: tc.maxBatch, CacheSize: -1})
		if err != nil {
			t.Fatal(err)
		}
		release, started := holdPredict(e)
		var got []int
		var wg sync.WaitGroup
		for i := 0; i <= tc.queued; i++ {
			wg.Add(1)
			go func(ids []int) {
				defer wg.Done()
				if _, err := e.Predict(context.Background(), ids); err != nil {
					t.Error(err)
				}
			}(pool[i%len(pool)])
			if i == 0 {
				got = append(got, <-started)
			}
		}
		waitQueued(t, e, tc.queued+1)
		close(release)
		wg.Wait()
		e.Close()
		close(started)
		for n := range started {
			got = append(got, n)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("MaxBatch %d, %d queued behind a busy worker: batches of %v, want %v",
				tc.maxBatch, tc.queued, got, tc.want)
		}
	}
}

// TestEngineCache checks the LRU short-circuits repeats.
func TestEngineCache(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids := randIDs(rand.New(rand.NewSource(15)), 1, 32, models.Directive.VocabSize())[0]
	first, err := e.Predict(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Predict(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("cached %v != computed %v", second, first)
	}
	if s := e.Stats().Predict; s.CacheHits != 1 {
		t.Errorf("cache hits = %d, want 1", s.CacheHits)
	}
}

// TestEngineSuggest checks the suggest path against the direct advisor and
// the per-item error contract.
func TestEngineSuggest(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	code := "for (i = 0; i < n; i++) a[i] = 0;"
	want, err := models.Suggest(code)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Suggest(context.Background(), code)
	if err != nil {
		t.Fatal(err)
	}
	if got.Probability != want.Probability || got.Parallelize != want.Parallelize {
		t.Errorf("engine %+v != direct %+v", got, want)
	}

	if _, err := e.Suggest(context.Background(), "for (i = 0; i < `n`"); err == nil {
		t.Error("unlexable snippet should surface its tokenize error")
	}
}

// TestEngineClose checks calls after Close fail fast and Close is
// idempotent.
func TestEngineClose(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	e.Close()
	if _, err := e.Predict(context.Background(), []int{tokenize.CLS, 5}); !errors.Is(err, ErrClosed) {
		t.Errorf("Predict after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Suggest(context.Background(), "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("Suggest after Close = %v, want ErrClosed", err)
	}
}

// TestEnginePredictEmptyIDs checks the library entry refuses an empty id
// sequence before it reaches a batch worker — where the forward's panic
// would kill the process — and that the engine keeps serving afterwards.
func TestEnginePredictEmptyIDs(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	for _, ids := range [][]int{nil, {}} {
		if _, err := e.Predict(context.Background(), ids); err == nil {
			t.Errorf("Predict(%v) returned no error", ids)
		}
	}
	ids := []int{tokenize.CLS, 5, 6}
	got, err := e.Predict(context.Background(), ids)
	if err != nil {
		t.Fatalf("Predict after a refused empty sequence: %v", err)
	}
	if want := predictOne(models.Directive, ids); got != want {
		t.Errorf("Predict after a refused empty sequence = %v, want %v", got, want)
	}
}

// TestEngineContextCancel checks a caller can abandon a request stuck in
// the queue behind a busy worker.
func TestEngineContextCancel(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release, started := holdPredict(e)
	defer close(release)
	go e.Predict(context.Background(), []int{tokenize.CLS, 7, 8})
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = e.Predict(ctx, []int{tokenize.CLS, 5, 6})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want deadline exceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancelled request waited for the full batching window")
	}
}

// BenchmarkServeThroughput measures coalesced predict throughput with
// concurrent clients and the cache disabled (so every op pays a forward),
// and reports the mean batch those clients coalesced into.
func BenchmarkServeThroughput(b *testing.B) {
	models := testModels(b)
	e, err := New(models, Config{MaxBatch: 16, CacheSize: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()

	pool := randIDs(rand.New(rand.NewSource(16)), 256, 64, models.Directive.VocabSize())
	b.ReportAllocs()
	b.SetParallelism(8)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(17))
		for pb.Next() {
			if _, err := e.Predict(context.Background(), pool[rng.Intn(len(pool))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
	b.ReportMetric(e.Stats().Predict.AvgBatch(), "items/batch")
}

// TestReplicasShareWeights runs 8 clients against Replicas: 4 on one
// float64 model with the cache off, so every request is a forward on some
// replica, and requires each answer to equal a serial PredictBatch on the
// caller's model. It then moves one weight of that model (traffic quiesced)
// and requires every replica to answer with it: a replica is a worker over
// the caller's weights, not a copy of them. Under -race this is also the
// proof that concurrent forwards only read.
func TestReplicasShareWeights(t *testing.T) {
	models := testModels(t)
	e, err := New(models, Config{MaxBatch: 2, Replicas: 4, CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pool := randIDs(rand.New(rand.NewSource(17)), 24, 64, models.Directive.VocabSize())

	hammer := func(phase string) {
		t.Helper()
		want := models.Directive.PredictBatch(pool)
		const clients, perClient = 8, 12
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perClient; r++ {
					i := (c*perClient + r) % len(pool)
					got, err := e.Predict(context.Background(), pool[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("%s, seq %d: engine %v != serial %v", phase, i, got, want[i])
						return
					}
				}
			}()
		}
		wg.Wait()
	}
	hammer("as built")
	models.Directive.(*core.PragFormer).FC2.B.W.Data[1] += 0.5
	hammer("after moving a weight of the caller's model")
}
