package train

import "sync"

// forShards splits [0, n) into one contiguous shard per worker and calls
// fn(r, lo, hi) for each non-empty one — inline at width 1, concurrently
// otherwise, returning when all are done.
func forShards(n, w int, fn func(r, lo, hi int)) {
	if w == 1 {
		fn(0, 0, n)
		return
	}
	per := (n + w - 1) / w
	var wg sync.WaitGroup
	for r := 0; r < w; r++ {
		lo := min(r*per, n)
		hi := min(lo+per, n)
		if lo == hi {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r, lo, hi)
		}()
	}
	wg.Wait()
}

// runShards backpropagates batch, one shard per replica. lossSum[r] grows
// by replica r's example losses, folded left to right so the sum is
// schedule-independent.
func runShards(replicas []Model, batch []int, set []Example, lossSum []float64) {
	forShards(len(batch), len(replicas), func(r, lo, hi int) {
		sum := lossSum[r]
		for _, idx := range batch[lo:hi] {
			sum += replicas[r].LossAndBackward(set[idx].IDs, set[idx].Label)
		}
		lossSum[r] = sum
	})
}

// evaluateModels computes mean loss and accuracy over set, sharding the work
// across the given models. All models must hold identical weights (replicas
// after a broadcast); per-shard sums are reduced in shard order, so the
// result is deterministic for a fixed model count.
func evaluateModels(models []Model, set []Example) (loss, acc float64) {
	if len(set) == 0 {
		return 0, 0
	}
	w := min(len(models), len(set))
	losses := make([]float64, w)
	correct := make([]int, w)
	forShards(len(set), w, func(r, lo, hi int) {
		losses[r], correct[r] = evalSums(models[r], set[lo:hi])
	})
	n := 0
	for r := 0; r < w; r++ {
		loss += losses[r]
		n += correct[r]
	}
	return loss / float64(len(set)), float64(n) / float64(len(set))
}

// EvaluateParallel computes mean loss and accuracy with the set sharded
// across workers goroutines that all call the same model concurrently. The
// model's PredictBatchProbs must be safe for concurrent use — true for
// core.PragFormer, whose inference path is read-only over the weights.
func EvaluateParallel(m Model, set []Example, workers int) (loss, acc float64) {
	models := make([]Model, max(1, workers))
	for i := range models {
		models[i] = m
	}
	return evaluateModels(models, set)
}
