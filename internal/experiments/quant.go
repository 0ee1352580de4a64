package experiments

import (
	"fmt"
	"io"

	"pragformer/internal/core"
	"pragformer/internal/dataset"
	"pragformer/internal/metrics"
	"pragformer/internal/tokenize"
)

// The quantization study is serving infrastructure rather than a paper
// artifact: it quantizes the trained Text-representation directive
// classifier to the int8 backend (core.Quantize) and reports, on the
// held-out test split, how closely the cheap backend tracks the float
// reference — label agreement and both accuracies. The agreement column is
// the deployment gate: the serving layer only flips an engine to -backend
// int8 because this number says the answers stay the same. What the flip
// buys is the benchmark harness's to measure (core.predict_batch16_us against
// quant.predict_batch16_us).

// QuantRow compares the two backends on one task.
type QuantRow struct {
	Task      dataset.Task
	Examples  int
	Agreement float64 // fraction of test predictions where the labels agree
	FloatAcc  float64
	QuantAcc  float64
}

// QuantTable reports the backend comparison.
type QuantTable struct {
	Rows []QuantRow
}

// RunQuant evaluates the directive task on both backends.
func (p *Pipeline) RunQuant() QuantTable {
	repr := tokenize.Text
	task := dataset.TaskDirective
	t := p.Model(task, repr)
	q, err := core.Quantize(t.Model)
	if err != nil {
		panic(err) // quantizing a just-trained model cannot fail
	}

	split := p.splitFor(task)
	ins := split.Test
	v := p.Vocab(repr)
	ids := make([][]int, len(ins))
	for i, in := range ins {
		ids[i] = v.Encode(p.Tokens(in.Rec, repr), p.P.MaxLen)
	}

	p.progress("quant study: %d test examples on both backends", len(ins))
	floatLabels := predictLabels(t.Model, ids)
	quantLabels := predictLabels(q, ids)

	row := QuantRow{Task: task, Examples: len(ins)}
	var agree int
	var cf, cq metrics.Confusion
	for i, in := range ins {
		if floatLabels[i] == quantLabels[i] {
			agree++
		}
		cf.Add(floatLabels[i], in.Label)
		cq.Add(quantLabels[i], in.Label)
	}
	if len(ins) > 0 {
		row.Agreement = float64(agree) / float64(len(ins))
	}
	row.FloatAcc = cf.Accuracy()
	row.QuantAcc = cq.Accuracy()
	return QuantTable{Rows: []QuantRow{row}}
}

// Print renders the table.
func (t QuantTable) Print(w io.Writer) {
	fmt.Fprintln(w, "Quantized inference: int8 backend vs float64 reference (test split)")
	fmt.Fprintf(w, "  %-10s %9s %10s %10s %10s\n",
		"task", "examples", "agreement", "float acc", "int8 acc")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "  %-10s %9d %9.1f%% %10.3f %10.3f\n",
			r.Task, r.Examples, 100*r.Agreement, r.FloatAcc, r.QuantAcc)
	}
}
