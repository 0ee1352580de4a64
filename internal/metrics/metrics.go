// Package metrics computes the evaluation measurements the paper reports
// for every system: precision, recall, F1 and accuracy (§5.2), derived from
// a binary confusion matrix. Following the paper's tables, precision/recall/
// F1 are macro-averaged over the two classes and accuracy is overall.
package metrics

// Confusion is a binary confusion matrix.
type Confusion struct {
	TP, FP, TN, FN int
}

// Add records one prediction.
func (c *Confusion) Add(predicted, actual bool) {
	switch {
	case predicted && actual:
		c.TP++
	case predicted && !actual:
		c.FP++
	case !predicted && !actual:
		c.TN++
	default:
		c.FN++
	}
}

// Total returns the number of recorded predictions.
func (c Confusion) Total() int { return c.TP + c.FP + c.TN + c.FN }

// Accuracy is the overall fraction of correct predictions.
func (c Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// PositivePrecision is TP / (TP + FP).
func (c Confusion) PositivePrecision() float64 { return safeDiv(c.TP, c.TP+c.FP) }

// PositiveRecall is TP / (TP + FN).
func (c Confusion) PositiveRecall() float64 { return safeDiv(c.TP, c.TP+c.FN) }

// NegativePrecision is TN / (TN + FN).
func (c Confusion) NegativePrecision() float64 { return safeDiv(c.TN, c.TN+c.FN) }

// NegativeRecall is TN / (TN + FP).
func (c Confusion) NegativeRecall() float64 { return safeDiv(c.TN, c.TN+c.FP) }

// Precision is the macro-averaged precision.
func (c Confusion) Precision() float64 {
	return (c.PositivePrecision() + c.NegativePrecision()) / 2
}

// Recall is the macro-averaged recall.
func (c Confusion) Recall() float64 {
	return (c.PositiveRecall() + c.NegativeRecall()) / 2
}

// F1 is the macro-averaged F1 score.
func (c Confusion) F1() float64 {
	return (f1(c.PositivePrecision(), c.PositiveRecall()) +
		f1(c.NegativePrecision(), c.NegativeRecall())) / 2
}

// Report is one evaluation row (a table line in the paper).
type Report struct {
	Precision, Recall, F1, Accuracy float64
}

// Report summarizes the confusion matrix.
func (c Confusion) Report() Report {
	return Report{Precision: c.Precision(), Recall: c.Recall(), F1: c.F1(), Accuracy: c.Accuracy()}
}

func f1(p, r float64) float64 {
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func safeDiv(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
