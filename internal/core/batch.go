package core

import "pragformer/internal/nn"

// Batch-first inference. Predict remains the reference implementation — it
// shares forwardCls with the training path, caches and all — while
// PredictBatch* run the one inference forward of nn/infer.go over float64
// projections: no backprop caches, pooled intermediates, a [CLS]-pruned
// last block, sequences stacked row-wise into one ragged matrix. The parity
// tests confirm it is bit-identical to calling forwardCls (Predict /
// PredictLabel / Loss) per sequence. The int8 backend runs the same forward
// over quant's projections.
//
// All PredictBatch* methods are safe for concurrent use: the forward pass
// only reads the weights.

// classifier returns the model's inference view.
func (m *PragFormer) classifier() nn.Classifier[*nn.EncoderBlock] {
	return nn.Classifier[*nn.EncoderBlock]{
		Tok: m.Emb.Tok.W, Pos: m.Emb.Pos.W, Blocks: m.Blocks,
		FinalLN: m.FinalLN.InferView(), FC1: m.FC1, FC2: m.FC2, FCHidden: m.Cfg.FCHidden,
	}
}

// PredictBatchProbs returns both class probabilities for every sequence.
func (m *PragFormer) PredictBatchProbs(idsBatch [][]int) [][2]float64 {
	return m.classifier().PredictBatchProbs(idsBatch)
}

// PredictBatch returns the positive-class probability for every sequence.
func (m *PragFormer) PredictBatch(idsBatch [][]int) []float64 {
	return m.classifier().PredictBatch(idsBatch)
}

// PredictLabelBatch applies the paper's 0.5 threshold to a whole batch.
func (m *PragFormer) PredictLabelBatch(idsBatch [][]int) []bool {
	return m.classifier().PredictLabelBatch(idsBatch)
}
