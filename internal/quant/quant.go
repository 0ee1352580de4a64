// Package quant is the int8 quantized inference backend: a post-training,
// per-channel symmetric quantization of PragFormer's linear and attention
// weight matrices, the int8 projections that plug those weights into the one
// inference forward in nn/infer.go (Linear is an nn.Projection, Attention an
// nn.QKVProjection). The package holds no forward pass of its own: the
// float64 and int8 backends run the same program over two weight formats,
// which is what the per-layer parity tests in core compare.
//
// It has no file format either. The float artifact `pragformer train` writes
// is the one model file; an int8 model is derived from it in memory by
// core.Quantize whenever a bundle is served at -backend int8.
//
// Scheme: each weight matrix is stored transposed (one output channel per
// row) with one float32 scale per channel, scale_c = max_k |W[k][c]| / 127,
// computed once at quantize time. Activations are quantized dynamically per
// row with the same absmax scheme at inference time, the matmul accumulates
// int8×int8 products in int32, and the result is dequantized through the
// float32 scale product (tensor.MatMulInt8BTInto). Everything that is not a
// weight matmul — embeddings, layer norms, residuals, attention
// score/softmax/value mixing, biases — stays in float64, exactly as the
// float path computes it.
//
// The quantized model is inference-only and safe for concurrent use: the
// forward passes only read the weights, so the serving layer shares one
// model across replica workers instead of deep-copying it.
package quant

import (
	"fmt"
	"math"
	"slices"

	"pragformer/internal/nn"
	"pragformer/internal/tensor"
)

// Config mirrors the architecture knobs inference needs from core.Config.
// (The quantizer in core copies them over; quant cannot import core, which
// imports quant.)
type Config struct {
	Vocab    int
	MaxLen   int
	D        int
	Heads    int
	Layers   int
	FFHidden int
	FCHidden int
}

// validate rejects configs no quantizer should ever produce.
func (c Config) validate() error {
	if c.Vocab <= 0 || c.MaxLen <= 0 || c.D <= 0 || c.Heads <= 0 ||
		c.Layers <= 0 || c.FFHidden <= 0 || c.FCHidden <= 0 {
		return fmt.Errorf("quant: invalid config %+v", c)
	}
	if c.D%c.Heads != 0 {
		return fmt.Errorf("quant: D %d not divisible by heads %d", c.D, c.Heads)
	}
	return nil
}

// Linear is a quantized y = x·W + b layer: the weight is int8 per output
// channel (stored transposed, channel rows), the bias stays float64.
type Linear struct {
	Wq *tensor.Int8Matrix // out×in, per-channel scales
	B  []float64          // out
}

// QuantizeLinear converts a float linear layer: per-channel symmetric
// absmax scales over each output channel (a column of the in×out weight),
// values rounded to the nearest int8 step. An all-zero channel gets scale 1.
func QuantizeLinear(l *nn.Linear) *Linear {
	w := l.W.W // in×out
	in, out := w.Rows, w.Cols
	q := &Linear{
		Wq: tensor.NewInt8(out, in),
		B:  slices.Clone(l.B.W.Row(0)),
	}
	for c := 0; c < out; c++ {
		amax := 0.0
		for k := 0; k < in; k++ {
			if a := math.Abs(w.At(k, c)); a > amax {
				amax = a
			}
		}
		qrow := q.Wq.Row(c)
		if amax == 0 {
			q.Wq.Scales[c] = 1
			continue // NewInt8 zeroed the row
		}
		scale := amax / 127
		q.Wq.Scales[c] = float32(scale)
		inv := 1 / scale
		for k := 0; k < in; k++ {
			qrow[k] = int8(math.Round(w.At(k, c) * inv))
		}
	}
	return q
}

// ApplyInto computes dst = x·W + b with x dynamically quantized per row
// (nn.Projection). The bias add rides in the kernel's fused epilogue
// (tensor.MatMulInt8BTFusedInto) instead of a separate output sweep. dst
// must not alias x; it is fully assigned.
func (l *Linear) ApplyInto(dst, x *tensor.Matrix) {
	xq := tensor.GetInt8Matrix(x.Rows, x.Cols)
	tensor.QuantizeRowsInto(xq, x)
	l.ApplyQuantizedInto(dst, xq)
	tensor.PutInt8Matrix(xq)
}

// ApplyReLUInto is ApplyInto with the ReLU activation also folded into the
// kernel epilogue — the quantized FFN/classifier hidden-layer fast path,
// value-identical to ApplyInto followed by a ReLU.
func (l *Linear) ApplyReLUInto(dst, x *tensor.Matrix) {
	xq := tensor.GetInt8Matrix(x.Rows, x.Cols)
	tensor.QuantizeRowsInto(xq, x)
	tensor.MatMulInt8BTFusedInto(dst, xq, l.Wq, l.B, true)
	tensor.PutInt8Matrix(xq)
}

// ApplyQuantizedInto runs the int8 kernel over an already-quantized input.
func (l *Linear) ApplyQuantizedInto(dst *tensor.Matrix, xq *tensor.Int8Matrix) {
	tensor.MatMulInt8BTFusedInto(dst, xq, l.Wq, l.B, false)
}

// fromLayerNorm copies a float layer norm's parameters into an owned
// inference view; normalization itself is nn.Norm.ApplyInto, the float
// path's arithmetic exactly (quantization never touches it).
func fromLayerNorm(ln *nn.LayerNorm) nn.Norm {
	v := ln.InferView()
	v.Gamma, v.Beta = slices.Clone(v.Gamma), slices.Clone(v.Beta)
	return v
}

// Attention is the quantized multi-head self-attention: projections run
// through int8 linears, score/softmax/value mixing stays float64.
type Attention struct {
	WQ, WK, WV, WO *Linear
	Heads          int
}

// ApplyQKVInto quantizes the attention input once and shares it across the
// query (when q is non-nil), key and value projections — three matmuls for
// one quantization pass (nn.QKVProjection).
func (a *Attention) ApplyQKVInto(q, k, v, x *tensor.Matrix) {
	xq := tensor.GetInt8Matrix(x.Rows, x.Cols)
	tensor.QuantizeRowsInto(xq, x)
	if q != nil {
		a.WQ.ApplyQuantizedInto(q, xq)
	}
	a.WK.ApplyQuantizedInto(k, xq)
	a.WV.ApplyQuantizedInto(v, xq)
	tensor.PutInt8Matrix(xq)
}

// Block is one quantized encoder block, shaped like nn.EncoderBlock.
type Block struct {
	LN1, LN2 nn.Norm
	Attn     *Attention
	FF1, FF2 *Linear
}

// InferView returns the block's int8 inference view.
func (b *Block) InferView() nn.BlockView {
	a := b.Attn
	return nn.BlockView{
		LN1: b.LN1, LN2: b.LN2,
		Attn: nn.AttentionView{QKV: a, WQ: a.WQ, WO: a.WO, Heads: a.Heads},
		FF1:  b.FF1, FF2: b.FF2, FFHidden: b.FF1.Wq.Rows,
	}
}

// Model is the quantized PragFormer classifier: float embeddings and layer
// norms, int8 linear/attention weights.
type Model struct {
	Cfg     Config
	Tok     *tensor.Matrix // vocab × D token embeddings
	Pos     *tensor.Matrix // maxLen × D positional embeddings
	Blocks  []*Block
	FinalLN nn.Norm
	FC1     *Linear
	FC2     *Linear
}

// FromNN quantizes a float model given its pieces. core.Quantize is the
// caller; it passes the classifier surface (the MLM pretraining head is
// training-only and is not carried into the quantized bundle). The token
// and position tables are not quantized and not copied: the returned model
// reads emb's own matrices (core.Quantize states the rule that follows).
func FromNN(cfg Config, emb *nn.Embedding, blocks []*nn.EncoderBlock,
	finalLN *nn.LayerNorm, fc1, fc2 *nn.Linear) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(blocks) != cfg.Layers {
		return nil, fmt.Errorf("quant: %d blocks for %d configured layers", len(blocks), cfg.Layers)
	}
	m := &Model{
		Cfg:     cfg,
		Tok:     emb.Tok.W,
		Pos:     emb.Pos.W,
		FinalLN: fromLayerNorm(finalLN),
		FC1:     QuantizeLinear(fc1),
		FC2:     QuantizeLinear(fc2),
	}
	for _, b := range blocks {
		m.Blocks = append(m.Blocks, &Block{
			LN1: fromLayerNorm(b.LN1),
			LN2: fromLayerNorm(b.LN2),
			Attn: &Attention{
				WQ:    QuantizeLinear(b.Attn.WQ),
				WK:    QuantizeLinear(b.Attn.WK),
				WV:    QuantizeLinear(b.Attn.WV),
				WO:    QuantizeLinear(b.Attn.WO),
				Heads: b.Attn.Heads,
			},
			FF1: QuantizeLinear(b.FF.L1),
			FF2: QuantizeLinear(b.FF.L2),
		})
	}
	return m, nil
}

// Classifier returns the model's inference view: the one forward of
// nn/infer.go over int8 projections. PredictBatchInto and PredictBatch
// delegate to it.
func (m *Model) Classifier() nn.Classifier[*Block] {
	return nn.Classifier[*Block]{
		Tok: m.Tok, Pos: m.Pos, Blocks: m.Blocks,
		FinalLN: m.FinalLN, FC1: m.FC1, FC2: m.FC2, FCHidden: m.Cfg.FCHidden,
	}
}

// PredictBatchInto writes the positive-class probability of every sequence
// into dst (core.Backend).
func (m *Model) PredictBatchInto(dst []float64, idsBatch [][]int) {
	m.Classifier().PredictBatchInto(dst, idsBatch)
}

// PredictBatch returns the positive-class probability for every sequence
// (core.Backend).
func (m *Model) PredictBatch(idsBatch [][]int) []float64 {
	return m.Classifier().PredictBatch(idsBatch)
}

// BackendName identifies the compute backend (core.Backend).
func (m *Model) BackendName() string { return "int8" }

// VocabSize reports the embeddable vocabulary size (core.Backend).
func (m *Model) VocabSize() int { return m.Cfg.Vocab }

// MaxSeqLen reports the input position budget (core.Backend).
func (m *Model) MaxSeqLen() int { return m.Cfg.MaxLen }
