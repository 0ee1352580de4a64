package train

import (
	"errors"
	"path/filepath"
	"runtime"
	"testing"
)

// trackedMLP is an mlp that remembers the replicas a run clones from it.
type trackedMLP struct {
	*mlp
	replicas *[]*mlp
}

func (m trackedMLP) Replicate(seed int64) Model {
	c := m.mlp.Replicate(seed).(*mlp)
	*m.replicas = append(*m.replicas, c)
	return c
}

// TestFitLeavesNoGrads pins the gradient lifecycle: accumulators exist only
// inside the training loop. However the loop ends — all epochs done, an
// interrupt, a resumed run — the model and every replica come out of it with
// nil Grads, and a lazily allocated accumulator is the same accumulator: one
// fit, and a second fit on the released model, land on the weights the
// eagerly allocating parent commit produced (digests recorded there).
func TestFitLeavesNoGrads(t *testing.T) {
	trainSet, validSet := mlpData(64, 12, 5), mlpData(16, 12, 6)
	for _, tc := range []struct {
		workers            int
		oneFit, secondFits string
	}{
		{1, "b8472706e9f62d8d", "0d254da291384592"},
		{2, "92ef372fecf654bf", "33b82344a99f9957"},
	} {
		var replicas []*mlp
		fresh := func() trackedMLP {
			replicas = nil
			return trackedMLP{newMLP(12, 8, 3), &replicas}
		}
		check := func(m trackedMLP, when string) {
			t.Helper()
			if len(replicas) != tc.workers-1 {
				t.Fatalf("workers=%d %s: %d replicas cloned", tc.workers, when, len(replicas))
			}
			for r, rm := range append([]*mlp{m.mlp}, replicas...) {
				for _, p := range rm.Params() {
					if p.Grad != nil {
						t.Errorf("workers=%d %s: replica %d still holds a gradient for %q", tc.workers, when, r, p.Name)
					}
				}
			}
		}
		cfg := Config{Epochs: 2, BatchSize: 8, LR: 0.01, ClipNorm: 1, Seed: 4, Workers: tc.workers}
		pinned := runtime.GOARCH == "amd64" // other compilers may fuse multiply-adds

		m := fresh()
		Fit(m, trainSet, validSet, cfg)
		check(m, "after Fit")
		if got := weightsDigest(m); pinned && got != tc.oneFit {
			t.Errorf("workers=%d: weights after one fit %s, want %s", tc.workers, got, tc.oneFit)
		}
		replicas = nil
		Fit(m, trainSet, validSet, cfg)
		check(m, "after a second Fit")
		if got := weightsDigest(m); pinned && got != tc.secondFits {
			t.Errorf("workers=%d: weights after a second fit %s, want %s", tc.workers, got, tc.secondFits)
		}

		// An early stop, then the resumed remainder of the same run.
		stop := make(chan struct{})
		close(stop)
		cfg.CheckpointPath = filepath.Join(t.TempDir(), "run.ckpt")
		cfg.Interrupt = stop
		m = fresh()
		if _, err := Run(m, trainSet, validSet, cfg); !errors.Is(err, ErrInterrupted) {
			t.Fatalf("interrupted run returned %v", err)
		}
		check(m, "after an interrupt")
		cfg.Interrupt = nil
		m = fresh()
		if _, err := Resume(m, trainSet, validSet, cfg); err != nil {
			t.Fatal(err)
		}
		check(m, "after Resume")
		if got := weightsDigest(m); pinned && got != tc.oneFit {
			t.Errorf("workers=%d: weights after interrupt + resume %s, want %s", tc.workers, got, tc.oneFit)
		}
	}
}
