package serve

// Hot-reload tests: a model swap under concurrent traffic must drop zero
// requests, every answer must be bit-exact against one of the two bundles,
// and the caches must never serve a stale (pre-swap) result after the
// swap. Run under -race in CI.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/tokenize"
)

// testModelsSeed builds a bundle like testModels but with a chosen init
// seed, so two bundles give different probabilities for the same input.
func testModelsSeed(t testing.TB, seed int64) *advisor.Models {
	t.Helper()
	v := tokenize.BuildVocab([][]string{{"for", "(", "i", "=", "0", ";", "<", "n", "+", ")", "a", "[", "]", "*", "b"}}, 1)
	m, err := core.New(core.Config{Vocab: v.Size() + 100, MaxLen: 64, D: 32, Heads: 4, Layers: 1}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return &advisor.Models{Directive: m, Vocab: v}
}

func TestReloadDropsNoRequests(t *testing.T) {
	old := testModelsSeed(t, 5)
	fresh := testModelsSeed(t, 6)
	e, err := New(old, Config{MaxBatch: 4, Replicas: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	pool := randIDs(rand.New(rand.NewSource(21)), 20, 64, old.Directive.VocabSize())
	wantOld := make(map[int]float64, len(pool))
	wantNew := make(map[int]float64, len(pool))
	for i, ids := range pool {
		wantOld[i] = predictOne(old.Directive, ids)
		wantNew[i] = predictOne(fresh.Directive, ids)
		if wantOld[i] == wantNew[i] {
			t.Fatalf("test bundles agree on input %d; swap would be unobservable", i)
		}
	}

	const clients, perClient = 8, 40
	var wg sync.WaitGroup
	var sawNew atomic.Bool
	errs := make(chan error, clients*perClient)
	bundles := [2]*advisor.Models{old, fresh}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(300 + c)))
			for r := 0; r < perClient; r++ {
				i := rng.Intn(len(pool))
				p, err := e.Predict(context.Background(), pool[i])
				if err != nil {
					errs <- fmt.Errorf("client %d req %d: %v", c, r, err)
					return
				}
				switch p {
				case wantOld[i]:
				case wantNew[i]:
					sawNew.Store(true)
				default:
					errs <- fmt.Errorf("client %d req %d: probability %v matches neither bundle", c, r, p)
					return
				}
			}
		}(c)
	}

	// Swap bundles back and forth while the clients hammer the engine.
	var rwg sync.WaitGroup
	rwg.Add(1)
	go func() {
		defer rwg.Done()
		for i := 0; i < 6; i++ {
			if err := e.Reload(bundles[(i+1)%2]); err != nil {
				errs <- fmt.Errorf("reload %d: %v", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()
	wg.Wait()
	rwg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if !sawNew.Load() {
		t.Log("no request observed the swapped bundle (timing-dependent; not a failure)")
	}
	if got := e.Stats().Reloads; got != 6 {
		t.Errorf("Reloads counter = %d, want 6", got)
	}
}

// TestReloadInvalidatesCache pins the cache semantics: a result cached
// before the swap must not be served after it.
func TestReloadInvalidatesCache(t *testing.T) {
	old := testModelsSeed(t, 5)
	fresh := testModelsSeed(t, 6)
	e, err := New(old, Config{MaxBatch: 4, Replicas: 1, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ids := randIDs(rand.New(rand.NewSource(33)), 1, 64, old.Directive.VocabSize())[0]
	p1, err := e.Predict(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := predictOne(old.Directive, ids); p1 != want {
		t.Fatalf("pre-swap predict %v, want %v", p1, want)
	}
	if err := e.Reload(fresh); err != nil {
		t.Fatal(err)
	}
	p2, err := e.Predict(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := predictOne(fresh.Directive, ids); p2 != want {
		t.Fatalf("post-swap predict %v, want %v (stale cache?)", p2, want)
	}
}

func TestReloadValidatesBundle(t *testing.T) {
	e, err := New(testModelsSeed(t, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Reload(nil); err == nil {
		t.Error("nil bundle accepted")
	}
	if err := e.Reload(&advisor.Models{}); err == nil {
		t.Error("empty bundle accepted")
	}
	if err := e.ReloadFromSource(); err == nil {
		t.Error("ReloadFromSource without a source succeeded")
	}
}

func TestReloadAfterCloseFails(t *testing.T) {
	e, err := New(testModelsSeed(t, 5), Config{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	if err := e.Reload(testModelsSeed(t, 6)); err != ErrClosed {
		t.Errorf("reload after close = %v, want ErrClosed", err)
	}
}

func TestReloadFromSource(t *testing.T) {
	old := testModelsSeed(t, 5)
	fresh := testModelsSeed(t, 6)
	calls := 0
	e, err := New(old, Config{Source: func() (*advisor.Models, error) {
		calls++
		return fresh, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.ReloadFromSource(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || e.Models() != fresh {
		t.Errorf("source calls %d, models swapped %v", calls, e.Models() == fresh)
	}
}
