package train

import (
	"math"
	"math/rand"
	"testing"

	"pragformer/internal/nn"
)

// refModel is a deterministic toy Model whose probability is a pure function
// of each sequence, whatever batch carries it.
type refModel struct{ bias float64 }

func (r refModel) Params() []*nn.Param                 { return nil }
func (r refModel) LossAndBackward([]int, bool) float64 { return 0 }
func (r refModel) prob(ids []int) float64 {
	s := r.bias
	for _, id := range ids {
		s += float64(id%7) * 0.13
	}
	return 1 / (1 + math.Exp(-s+2))
}
func (r refModel) PredictBatchProbs(batch [][]int) [][2]float64 {
	out := make([][2]float64, len(batch))
	for i, ids := range batch {
		p := r.prob(ids)
		out[i] = [2]float64{1 - p, p}
	}
	return out
}

// TestEvaluateBatchParity checks the batched evaluator against a
// per-example loss and accuracy computed here, across set sizes spanning
// several evalChunk boundaries: the chunking must neither drop, repeat nor
// reorder an example's contribution.
func TestEvaluateBatchParity(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := refModel{bias: 0.4}
	for _, n := range []int{0, 1, evalChunk - 1, evalChunk, evalChunk + 1, 3*evalChunk + 5} {
		set := make([]Example, n)
		for i := range set {
			ids := make([]int, 1+rng.Intn(20))
			for j := range ids {
				ids[j] = rng.Intn(50)
			}
			set[i] = Example{IDs: ids, Label: rng.Intn(2) == 0}
		}
		var wantLoss, wantAcc float64
		if n > 0 {
			correct := 0
			for _, ex := range set {
				p := m.prob(ex.IDs)
				py := p
				if !ex.Label {
					py = 1 - p
				}
				wantLoss += -math.Log(math.Max(py, 1e-12))
				if (p > 0.5) == ex.Label {
					correct++
				}
			}
			wantLoss /= float64(n)
			wantAcc = float64(correct) / float64(n)
		}
		gotLoss, gotAcc := Evaluate(m, set)
		if gotLoss != wantLoss || gotAcc != wantAcc {
			t.Errorf("n=%d: batched Evaluate (%v, %v) != per-example (%v, %v)",
				n, gotLoss, gotAcc, wantLoss, wantAcc)
		}
		// The parallel evaluator shards but must keep the same totals up to
		// reduction order.
		pLoss, pAcc := EvaluateParallel(m, set, 3)
		if math.Abs(pLoss-wantLoss) > 1e-12 || pAcc != wantAcc {
			t.Errorf("n=%d: EvaluateParallel (%v, %v) != (%v, %v)", n, pLoss, pAcc, wantLoss, wantAcc)
		}
	}
}
