package core

import (
	"fmt"

	"pragformer/internal/nn"
	"pragformer/internal/quant"
)

// Backend names, as selected by serving configuration and reported by
// health probes.
const (
	BackendFloat64 = "float64"
	BackendInt8    = "int8"
)

// Backend is the inference surface the upper layers — advisor, serve,
// experiments, the CLIs — program against, decoupling them from the
// numeric representation underneath. Two implementations exist: the float64
// *PragFormer itself (the training master), and the int8 *quant.Model
// produced by Quantize.
//
// Contract: every method must be safe for concurrent use — the serving
// layer shares one Backend value, and so one set of weights, across all its
// replica workers. An implementation that mutates state during inference
// does not satisfy this interface.
type Backend interface {
	// BackendName identifies the compute backend ("float64" | "int8").
	BackendName() string
	// VocabSize is the embeddable vocabulary size; ids must be in
	// [0, VocabSize).
	VocabSize() int
	// MaxSeqLen is the input position budget; longer sequences truncate.
	MaxSeqLen() int
	// PredictBatchInto writes the positive-class probability of sequence i
	// into dst[i]; dst must hold at least len(idsBatch) slots. One sequence
	// is a batch of one, and a verdict is the caller's threshold (the
	// paper's is 0.5) over it. A caller that keeps no result, as the advisor
	// does with a batch's probabilities and LIME's labels, asks through it
	// into its own scratch, and the forward allocates nothing.
	PredictBatchInto(dst []float64, idsBatch [][]int)
	// PredictBatch is PredictBatchInto into a slice of its own, the call's
	// one allocation.
	PredictBatch(idsBatch [][]int) []float64
}

// Both backends must satisfy the interface.
var (
	_ Backend = (*PragFormer)(nil)
	_ Backend = (*quant.Model)(nil)
)

// WeightBytes is the size of the weights b's inference reads: the value of
// the pf_model_weight_bytes gauge, and what a bundle's resident footprint is
// held against (advisor.TestBundleFootprint).
func WeightBytes(b Backend) int {
	n := 0
	switch m := b.(type) {
	case *PragFormer:
		for _, p := range m.Params() {
			n += 8 * len(p.W.Data)
		}
	case *quant.Model:
		linears, norms := []*quant.Linear{m.FC1, m.FC2}, []nn.Norm{m.FinalLN}
		for _, blk := range m.Blocks {
			linears = append(linears, blk.Attn.WQ, blk.Attn.WK, blk.Attn.WV, blk.Attn.WO, blk.FF1, blk.FF2)
			norms = append(norms, blk.LN1, blk.LN2)
		}
		n = 8 * (len(m.Tok.Data) + len(m.Pos.Data))
		for _, l := range linears {
			n += len(l.Wq.Data) + 4*len(l.Wq.Scales) + 8*len(l.B)
		}
		for _, ln := range norms {
			n += 8 * (len(ln.Gamma) + len(ln.Beta))
		}
	}
	return n
}

// BackendName identifies the float64 reference backend (Backend).
func (m *PragFormer) BackendName() string { return BackendFloat64 }

// VocabSize reports the embeddable vocabulary size (Backend).
func (m *PragFormer) VocabSize() int { return m.Cfg.Vocab }

// MaxSeqLen reports the input position budget (Backend).
func (m *PragFormer) MaxSeqLen() int { return m.Cfg.MaxLen }

// Quantize converts a trained model into the int8 inference backend:
// per-channel symmetric absmax quantization of every linear and attention
// weight matrix, calibrated once from the weights at quantize time (see
// internal/quant). The float model is left untouched; the returned bundle
// is inference-only.
//
// The bundle shares m's float64 token and position tables — nearly all of
// a demo-scale classifier — read-only, as /predict replicas share one set
// of weights. A fit of m after Quantize therefore moves what the bundle
// embeds while its int8 weights stay as calibrated: quantize again after
// training m further.
func Quantize(m *PragFormer) (*quant.Model, error) {
	q, err := quant.FromNN(quant.Config{
		Vocab: m.Cfg.Vocab, MaxLen: m.Cfg.MaxLen, D: m.Cfg.D, Heads: m.Cfg.Heads,
		Layers: m.Cfg.Layers, FFHidden: m.Cfg.FFHidden, FCHidden: m.Cfg.FCHidden,
	}, m.Emb, m.Blocks, m.FinalLN, m.FC1, m.FC2)
	if err != nil {
		return nil, fmt.Errorf("core: quantize: %w", err)
	}
	return q, nil
}
