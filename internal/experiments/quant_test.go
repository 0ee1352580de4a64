package experiments

import (
	"bytes"
	"strings"
	"testing"
)

// TestQuantAgreement is the acceptance gate for the int8 backend: on the
// experiments test pipeline (trained Fast-mode directive classifier,
// held-out test split), the quantized model must agree with the float64
// reference on at least 97% of predicted labels, and its task accuracy must
// not degrade by more than the disagreement budget.
func TestQuantAgreement(t *testing.T) {
	p := testPipeline(t)
	tab := p.RunQuant()
	if len(tab.Rows) != 1 {
		t.Fatalf("quant table has %d rows", len(tab.Rows))
	}
	r := tab.Rows[0]
	if r.Examples == 0 {
		t.Fatal("empty test split")
	}
	if r.Agreement < 0.97 {
		t.Errorf("int8/float64 label agreement %.3f < 0.97 (%d examples)", r.Agreement, r.Examples)
	}
	if r.QuantAcc < r.FloatAcc-(1-r.Agreement)-1e-9 {
		t.Errorf("quant accuracy %.3f below float %.3f minus disagreement budget", r.QuantAcc, r.FloatAcc)
	}
}

// TestQuantExperimentPrints wires the study into the experiment runner.
func TestQuantExperimentPrints(t *testing.T) {
	p := testPipeline(t)
	var buf bytes.Buffer
	if err := p.Run("quant", &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Quantized inference", "agreement", "directive"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("quant output missing %q:\n%s", want, buf.String())
		}
	}
}
