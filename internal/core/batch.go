package core

import "pragformer/internal/nn"

// Batch-first inference. PredictBatchInto, PredictBatch and
// PredictBatchProbs run the one inference forward of nn/infer.go over
// float64 projections: no backprop caches, pooled intermediates, a
// [CLS]-pruned last block, sequences stacked row-wise into one ragged
// matrix. The parity tests confirm it is bit-identical to the training
// forward, forwardCls, per sequence. The int8 backend runs the same forward
// over quant's projections.
//
// Both methods are safe for concurrent use: the forward pass only reads the
// weights.

// classifier returns the model's inference view.
func (m *PragFormer) classifier() nn.Classifier[*nn.EncoderBlock] {
	return nn.Classifier[*nn.EncoderBlock]{
		Tok: m.Emb.Tok.W, Pos: m.Emb.Pos.W, Blocks: m.Blocks,
		FinalLN: m.FinalLN.InferView(), FC1: m.FC1, FC2: m.FC2, FCHidden: m.Cfg.FCHidden,
	}
}

// PredictBatchProbs returns both class probabilities for every sequence:
// what the trainer's validation pass (train.Model) scores losses from.
func (m *PragFormer) PredictBatchProbs(idsBatch [][]int) [][2]float64 {
	return m.classifier().PredictBatchProbs(idsBatch)
}

// PredictBatchInto writes the positive-class probability of every sequence
// into dst (Backend).
func (m *PragFormer) PredictBatchInto(dst []float64, idsBatch [][]int) {
	m.classifier().PredictBatchInto(dst, idsBatch)
}

// PredictBatch returns the positive-class probability for every sequence.
func (m *PragFormer) PredictBatch(idsBatch [][]int) []float64 {
	return m.classifier().PredictBatch(idsBatch)
}
