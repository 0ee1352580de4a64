package serve

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"pragformer/internal/lru"
	"pragformer/internal/obs"
)

// batcherOps lists, in source order, the operations method fn of batcher.go
// performs on the batcher's run pointer and its cache ("run.Store",
// "cache.Roll", ...).
func batcherOps(t *testing.T, fn string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "batcher.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Name.Name != fn {
			continue
		}
		var ops []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if field, ok := sel.X.(*ast.SelectorExpr); ok {
					if recv, ok := field.X.(*ast.Ident); ok && recv.Name == "b" && (field.Sel.Name == "run" || field.Sel.Name == "cache") {
						ops = append(ops, field.Sel.Name+"."+sel.Sel.Name)
					}
				}
			}
			return true
		})
		return ops
	}
	t.Fatalf("batcher.go has no method %s", fn)
	return nil
}

// TestReloadBatchInterleavings closes the batcher's generation protocol on a
// bounded instance: it enumerates every interleaving of three actors over a
// real lru.Cache and a real run pointer, and asserts that no Get after the
// reload returns a value the old run computed.
//
//   - a worker: read the cache generation, load the run, compute, PutAt;
//   - a reload: the statements of setRun;
//   - a caller: three Gets.
//
// The cache starts with a value of the old run in it. The worker's two
// reads and the reload's steps come in the order batcher.go writes them, read
// from its source, so a reorder of either — setRun rolling before it stores
// the run, or a worker loading the run before it reads the generation —
// reorders the steps here, and the enumeration finds the stale Get. The real
// setRun is then held to the stepped reload's end state.
func TestReloadBatchInterleavings(t *testing.T) {
	const key = "k"
	oldRun := runFunc[string, string](func(p []string) ([]string, []obs.Stage) { return []string{"old"}, nil })
	newRun := runFunc[string, string](func(p []string) ([]string, []obs.Stage) { return []string{"new"}, nil })
	fresh := func() *batcher[string, string] {
		b := &batcher[string, string]{cache: lru.New[string](8)}
		b.run.Store(&oldRun)
		b.cache.PutAt(b.cache.Gen(), key, "old") // an earlier batch's answer
		return b
	}

	var reads []string // the worker's generation read and run load, in source order
	for _, op := range batcherOps(t, "worker") {
		if op == "cache.Gen" || op == "run.Load" {
			reads = append(reads, op)
		}
	}
	reload := batcherOps(t, "setRun")
	if len(reads) != 2 || len(reload) == 0 || len(reload) > 4 {
		t.Fatalf("worker reads %v, setRun steps %v: not the protocol this test models", reads, reload)
	}

	// One schedule's state, stepped by actor.
	type state struct {
		b        *batcher[string, string]
		gen      uint64
		run      runFunc[string, string]
		result   string
		worker   int // steps each of the two has taken
		reloaded int
	}
	workerStep := func(s *state) {
		switch {
		case s.worker < len(reads) && reads[s.worker] == "cache.Gen":
			s.gen = s.b.cache.Gen()
		case s.worker < len(reads):
			s.run = *s.b.run.Load()
		case s.worker == len(reads):
			out, _ := s.run([]string{key})
			s.result = out[0]
		default:
			s.b.cache.PutAt(s.gen, key, s.result)
		}
		s.worker++
	}
	reloadStep := func(s *state) {
		switch op := reload[s.reloaded]; op {
		case "run.Store":
			s.b.run.Store(&newRun)
		case "cache.Roll":
			s.b.cache.Roll()
		default:
			t.Fatalf("setRun does %s, which this enumeration does not model", op)
		}
		s.reloaded++
	}
	const workerSteps, getSteps = 4, 3

	var schedules, staleBefore, freshAfter int
	var walk func(trace []byte, w, r, g int)
	run := func(trace []byte) {
		s := &state{b: fresh()}
		for i, actor := range trace {
			switch actor {
			case 'w':
				workerStep(s)
			case 'r':
				reloadStep(s)
			case 'g':
				v, ok := s.b.cache.Get(key)
				switch done := s.reloaded == len(reload); {
				case done && ok && v == "old":
					t.Fatalf("schedule %s: Get at step %d, after the reload, returned the old run's value", trace, i+1)
				case !done && ok && v == "old":
					staleBefore++
				case done && ok && v == "new":
					freshAfter++
				}
			}
		}
		schedules++
	}
	walk = func(trace []byte, w, r, g int) {
		if w == workerSteps && r == len(reload) && g == getSteps {
			run(trace)
			return
		}
		if w < workerSteps {
			walk(append(trace, 'w'), w+1, r, g)
		}
		if r < len(reload) {
			walk(append(trace, 'r'), w, r+1, g)
		}
		if g < getSteps {
			walk(append(trace, 'g'), w, r, g+1)
		}
	}
	walk(nil, 0, 0, 0)

	// 9!/(4!·2!·3!) = 1260 schedules for a two-statement setRun.
	want := factorial(workerSteps+len(reload)+getSteps) / (factorial(workerSteps) * factorial(len(reload)) * factorial(getSteps))
	if schedules != want {
		t.Fatalf("enumerated %d schedules, want %d", schedules, want)
	}
	if staleBefore == 0 || freshAfter == 0 {
		t.Fatalf("vacuous enumeration: %d old values read before the reload, %d new ones after", staleBefore, freshAfter)
	}

	// The real setRun ends where the stepped reload does.
	b := fresh()
	gen := b.cache.Gen()
	b.setRun(newRun)
	if _, ok := b.cache.Get(key); ok || b.cache.Gen() != gen+1 {
		t.Errorf("after setRun: generation %d (was %d), old entry still cached: %v", b.cache.Gen(), gen, ok)
	}
	if got, _ := (*b.run.Load())(nil); got[0] != "new" {
		t.Errorf("after setRun the batcher runs %q, want the new run", got[0])
	}
}

func factorial(n int) int {
	f := 1
	for i := 2; i <= n; i++ {
		f *= i
	}
	return f
}
