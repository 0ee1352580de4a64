package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestPerfectClassifier(t *testing.T) {
	var c Confusion
	for i := 0; i < 10; i++ {
		c.Add(true, true)
		c.Add(false, false)
	}
	r := c.Report()
	if r.Precision != 1 || r.Recall != 1 || r.F1 != 1 || r.Accuracy != 1 {
		t.Fatalf("r = %+v", r)
	}
}

func TestAlwaysPositive(t *testing.T) {
	var c Confusion
	for i := 0; i < 10; i++ {
		c.Add(true, true)
		c.Add(true, false)
	}
	if c.Accuracy() != 0.5 {
		t.Errorf("acc = %g", c.Accuracy())
	}
	if c.PositivePrecision() != 0.5 || c.PositiveRecall() != 1 {
		t.Errorf("pos P=%g R=%g", c.PositivePrecision(), c.PositiveRecall())
	}
	if c.NegativeRecall() != 0 {
		t.Errorf("neg recall = %g", c.NegativeRecall())
	}
	// Macro recall = (1 + 0) / 2.
	if c.Recall() != 0.5 {
		t.Errorf("macro recall = %g", c.Recall())
	}
}

func TestKnownMatrix(t *testing.T) {
	c := Confusion{TP: 40, FP: 10, TN: 35, FN: 15}
	if c.Total() != 100 {
		t.Fatal("total wrong")
	}
	if math.Abs(c.Accuracy()-0.75) > 1e-12 {
		t.Errorf("acc = %g", c.Accuracy())
	}
	if math.Abs(c.PositivePrecision()-0.8) > 1e-12 {
		t.Errorf("posP = %g", c.PositivePrecision())
	}
	if math.Abs(c.PositiveRecall()-40.0/55) > 1e-12 {
		t.Errorf("posR = %g", c.PositiveRecall())
	}
}

func TestEmptyMatrixSafe(t *testing.T) {
	var c Confusion
	r := c.Report()
	if r.Accuracy != 0 || r.Precision != 0 || r.Recall != 0 || r.F1 != 0 {
		t.Fatalf("r = %+v", r)
	}
}

// Properties: all metrics stay in [0,1]; swapping prediction polarity swaps
// the class-specific measures.
func TestMetricBounds(t *testing.T) {
	f := func(tp, fp, tn, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), TN: int(tn), FN: int(fn)}
		r := c.Report()
		for _, v := range []float64{r.Precision, r.Recall, r.F1, r.Accuracy} {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPolaritySwap(t *testing.T) {
	c := Confusion{TP: 7, FP: 3, TN: 20, FN: 5}
	swapped := Confusion{TP: c.TN, FP: c.FN, TN: c.TP, FN: c.FP}
	if c.PositivePrecision() != swapped.NegativePrecision() {
		t.Error("precision polarity swap broken")
	}
	if c.PositiveRecall() != swapped.NegativeRecall() {
		t.Error("recall polarity swap broken")
	}
	if c.Accuracy() != swapped.Accuracy() {
		t.Error("accuracy should be polarity invariant")
	}
	if math.Abs(c.F1()-swapped.F1()) > 1e-12 {
		t.Error("macro F1 should be polarity invariant")
	}
}
