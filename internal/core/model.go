// Package core implements PragFormer, the paper's primary contribution: a
// transformer encoder over tokenized code snippets with a two-layer fully-
// connected classification head (§4.1), trained with binary cross-entropy.
// It also provides the masked-language-model pretraining objective that
// stands in for the DeepSCC/RoBERTa initialization (transfer learning at CPU
// scale; its vocabulary head lives with the pretraining run, not the model),
// and gob-based model persistence.
package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"

	"pragformer/internal/ckpt"
	"pragformer/internal/nn"
	"pragformer/internal/tensor"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// DefaultMaxLen is the paper's input budget: 110 token positions (§4.2).
// Every layer that needs a fallback sequence cap — model configs, the
// advisor, the serving engine, the experiment pipeline — derives it from
// this constant rather than repeating the magic number.
const DefaultMaxLen = 110

// Config describes a PragFormer architecture.
type Config struct {
	Vocab    int     // vocabulary size (from tokenize.Vocab)
	MaxLen   int     // maximum input positions; DefaultMaxLen when zero
	D        int     // model dimension
	Heads    int     // attention heads
	Layers   int     // encoder blocks
	FFHidden int     // FFN hidden dimension
	FCHidden int     // classification head hidden dimension
	Dropout  float64 // dropout rate in residuals and the head
}

// Validate fills defaults and checks consistency.
func (c *Config) Validate() error {
	if c.MaxLen == 0 {
		c.MaxLen = DefaultMaxLen
	}
	if c.FFHidden == 0 {
		c.FFHidden = 2 * c.D
	}
	if c.FCHidden == 0 {
		c.FCHidden = c.D
	}
	if c.Vocab < tokenize.NumSpecials {
		return fmt.Errorf("core: vocab %d too small", c.Vocab)
	}
	if c.D <= 0 || c.Heads <= 0 || c.Layers <= 0 || c.MaxLen < 0 || c.FFHidden < 0 || c.FCHidden < 0 {
		return fmt.Errorf("core: invalid dims %+v", c)
	}
	if c.D%c.Heads != 0 {
		return fmt.Errorf("core: D %d not divisible by heads %d", c.D, c.Heads)
	}
	return nil
}

// PragFormer is the encoder + classification head.
type PragFormer struct {
	Cfg     Config
	Emb     *nn.Embedding
	Blocks  []*nn.EncoderBlock
	FinalLN *nn.LayerNorm
	FC1     *nn.Linear
	FC2     *nn.Linear

	rng *nn.RNG // dropout randomness (training only); serializable for resume
	// borrows holds every matrix the example in flight took from the
	// tensor pool; LossAndBackward and MLMLossAndBackward release it
	// before they return.
	borrows nn.Borrows
}

// New builds a PragFormer with seeded initialization.
func New(cfg Config, seed int64) (*PragFormer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	m := &PragFormer{
		Cfg:     cfg,
		Emb:     nn.NewEmbedding(cfg.Vocab, cfg.MaxLen, cfg.D, rng),
		FinalLN: nn.NewLayerNorm("final_ln", cfg.D),
		FC1:     nn.NewLinear("fc1", cfg.D, cfg.FCHidden, rng),
		FC2:     nn.NewLinear("fc2", cfg.FCHidden, 2, rng),
		rng:     nn.NewRNG(seed + 1),
	}
	// The pretraining head's D×Vocab weights used to be drawn here (its bias
	// drew nothing). The head now belongs to the pretraining run, but every
	// block's initial weights — and so every golden — hang off this stream
	// position: draw and drop them, ~3 ms for a demo-sized model.
	for i := cfg.D * cfg.Vocab; i > 0; i-- {
		rng.NormFloat64()
	}
	for l := 0; l < cfg.Layers; l++ {
		m.Blocks = append(m.Blocks, nn.NewEncoderBlock(
			blockName(l), cfg.D, cfg.Heads, cfg.FFHidden, cfg.Dropout, rng))
	}
	return m, nil
}

func blockName(l int) string { return fmt.Sprintf("block%d", l) }

// assemble builds the architecture a validated cfg describes with no storage
// behind the weights (nn's nil-rng construction: shapes only) and hands each
// component's parameters to bind, in Params order, as soon as it exists;
// bind gives them storage. Clone binds copies of another model's weights,
// Load a decoded file's tensors — so bind may fail, and runs per component:
// the file is held against one component's shapes before cfg sizes the next.
func assemble(cfg Config, seed int64, bind func([]*nn.Param) error) (*PragFormer, error) {
	m := &PragFormer{Cfg: cfg, rng: nn.NewRNG(seed + 1)}
	m.Emb = nn.NewEmbedding(cfg.Vocab, cfg.MaxLen, cfg.D, nil)
	if err := bind(m.Emb.Params()); err != nil {
		return nil, err
	}
	for l := 0; l < cfg.Layers; l++ {
		b := nn.NewEncoderBlock(blockName(l), cfg.D, cfg.Heads, cfg.FFHidden, cfg.Dropout, nil)
		if err := bind(b.Params()); err != nil {
			return nil, err
		}
		m.Blocks = append(m.Blocks, b)
	}
	m.FinalLN = nn.NewLayerNorm("final_ln", cfg.D)
	m.FC1 = nn.NewLinear("fc1", cfg.D, cfg.FCHidden, nil)
	m.FC2 = nn.NewLinear("fc2", cfg.FCHidden, 2, nil)
	if err := bind(slices.Concat(m.FinalLN.Params(), m.FC1.Params(), m.FC2.Params())); err != nil {
		return nil, err
	}
	return m, nil
}

// Params returns the classifier parameters, in the Save/Load wire order.
func (m *PragFormer) Params() []*nn.Param {
	ps := m.EncoderParams()
	ps = append(ps, m.FC1.Params()...)
	ps = append(ps, m.FC2.Params()...)
	return ps
}

// EncoderParams returns only the encoder parameters (shared between the
// MLM pretraining phase and fine-tuning — the transfer-learning surface).
func (m *PragFormer) EncoderParams() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, m.Emb.Params()...)
	for _, b := range m.Blocks {
		ps = append(ps, b.Params()...)
	}
	ps = append(ps, m.FinalLN.Params()...)
	return ps
}

// Clone deep-copies the model: identical architecture and weights in fresh
// buffers, no gradient accumulators, and the dropout stream reseeded from
// seed so each training replica draws independent noise.
func (m *PragFormer) Clone(seed int64) *PragFormer {
	src := m.Params()
	c, _ := assemble(m.Cfg, seed, func(ps []*nn.Param) error { // cannot fail
		for i, p := range ps {
			p.W.Data = slices.Clone(src[i].W.Data)
		}
		src = src[len(ps):]
		return nil
	})
	return c
}

// Replicate implements train.Replicable, letting train.Fit shard batches
// across deep copies of the model.
func (m *PragFormer) Replicate(seed int64) train.Model { return m.Clone(seed) }

// RNGState exports the dropout stream position (train.RNGStateful) so a
// checkpoint can resume the exact noise sequence.
func (m *PragFormer) RNGState() uint64 { return m.rng.State() }

// SetRNGState restores a dropout stream position captured by RNGState.
func (m *PragFormer) SetRNGState(s uint64) { m.rng.SetState(s) }

// encCache stores every sub-cache of one encoder pass.
type encCache struct {
	ids    []int
	blocks []*nn.BlockCache
	lnc    *nn.LayerNormCache
	hidden *tensor.Matrix // post-final-LN activations of the first nq rows (nq×D)
}

// encode runs the encoder over ids. Every block but the last computes all
// T rows, since the next block's attention reads them all; the last
// computes only its first nq (nn.EncoderBlock.Forward) — 1 when the [CLS]
// row is all the caller reads.
func (m *PragFormer) encode(ids []int, nq int, train bool) *encCache {
	if len(ids) > m.Cfg.MaxLen {
		ids = ids[:m.Cfg.MaxLen]
	}
	c := &encCache{ids: ids}
	x := m.Emb.Forward(ids, &m.borrows)
	last := len(m.Blocks) - 1
	for l, b := range m.Blocks {
		rows := x.Rows
		if l == last {
			rows = nq
		}
		var bc *nn.BlockCache
		x, bc = b.Forward(x, rows, train, m.rng, &m.borrows)
		c.blocks = append(c.blocks, bc)
	}
	c.hidden, c.lnc = m.FinalLN.Forward(x, &m.borrows)
	return c
}

// encodeBackward propagates dHidden, the gradient of c.hidden's rows,
// through the encoder.
func (m *PragFormer) encodeBackward(c *encCache, dHidden *tensor.Matrix) {
	dx := m.FinalLN.Backward(c.lnc, dHidden, &m.borrows)
	for l := len(m.Blocks) - 1; l >= 0; l-- {
		dx = m.Blocks[l].Backward(c.blocks[l], dx, &m.borrows)
	}
	m.Emb.Backward(c.ids, dx)
}

// clsCache extends encCache with head activations.
type clsCache struct {
	enc  *encCache
	c1   *nn.LinearCache
	cr   *nn.ReLUCache
	cd   *nn.DropoutCache
	c2   *nn.LinearCache
	prob [2]float64
}

// forwardCls runs encoder + head, returning class probabilities: the
// training forward, and the reference the batch parity tests hold the
// inference forward (batch.go) to. The head reads the [CLS] row alone, so
// the last block computes that row only. Its matrices are borrowed into
// m.borrows, which the caller releases.
func (m *PragFormer) forwardCls(ids []int, train bool) *clsCache {
	bw := &m.borrows
	c := &clsCache{enc: m.encode(ids, 1, train)}
	cls := c.enc.hidden // [CLS] pooling: the one row computed
	h, c1 := m.FC1.Forward(cls, bw)
	c.c1 = c1
	a, cr := nn.ReLU(h, bw)
	c.cr = cr
	a, c.cd = nn.Dropout(a, m.Cfg.Dropout, train, m.rng, bw)
	logits, c2 := m.FC2.Forward(a, bw)
	c.c2 = c2
	var p [2]float64
	tensor.SoftmaxVecInto(p[:], logits.Row(0))
	c.prob = p
	return c
}

// LossAndBackward computes the binary cross-entropy loss (Eq. 1) for one
// example and accumulates gradients for all classifier parameters. Every
// activation and backward temporary of the example is borrowed from the
// tensor pool and is back in it when this returns.
func (m *PragFormer) LossAndBackward(ids []int, label bool) float64 {
	bw := &m.borrows
	c := m.forwardCls(ids, true)
	y := 0
	if label {
		y = 1
	}
	loss := -math.Log(math.Max(c.prob[y], 1e-12))

	// Softmax+CE gradient: dlogits = p - onehot(y).
	dLogits := bw.BorrowDirty(1, 2)
	dLogits.Set(0, 0, c.prob[0])
	dLogits.Set(0, 1, c.prob[1])
	dLogits.Data[y] -= 1

	da := m.FC2.Backward(c.c2, dLogits, bw)
	da = nn.DropoutBackward(c.cd, da, bw)
	dh := nn.ReLUBackward(c.cr, da, bw)
	dCls := m.FC1.Backward(c.c1, dh, bw)
	m.encodeBackward(c.enc, dCls)
	bw.Release()
	return loss
}

// ---------------------------------------------------------------------------
// Masked language model pretraining (the DeepSCC stand-in)
// ---------------------------------------------------------------------------

// NewMLMHead builds the vocabulary projection pretraining trains on top of
// m's encoder, from its own seeded stream. It belongs to the pretraining
// run, not to the model: the caller drops it when the run ends.
func (m *PragFormer) NewMLMHead(seed int64) *nn.Linear {
	return nn.NewLinear("mlm", m.Cfg.D, m.Cfg.Vocab, rand.New(rand.NewSource(seed)))
}

// MLMParams returns what pretraining updates: the encoder plus head.
func (m *PragFormer) MLMParams(head *nn.Linear) []*nn.Param {
	return append(m.EncoderParams(), head.Params()...)
}

// MLMLossAndBackward applies the BERT-style masking recipe (15% of
// positions: 80% [MASK], 10% random, 10% kept) and accumulates encoder and
// head gradients. Returns the mean masked-token cross-entropy and the
// number of masked positions. Like LossAndBackward it returns every matrix
// it borrowed — the T×Vocab logits and their gradient the largest — to the
// tensor pool before it returns.
func (m *PragFormer) MLMLossAndBackward(head *nn.Linear, ids []int, rng *rand.Rand) (float64, int) {
	if len(ids) > m.Cfg.MaxLen {
		ids = ids[:m.Cfg.MaxLen]
	}
	masked := make([]int, len(ids))
	copy(masked, ids)
	var targets []int               // positions
	for t := 1; t < len(ids); t++ { // never mask [CLS]
		if rng.Float64() >= 0.15 {
			continue
		}
		targets = append(targets, t)
		switch r := rng.Float64(); {
		case r < 0.8:
			masked[t] = tokenize.MASK
		case r < 0.9:
			masked[t] = tokenize.NumSpecials + rng.Intn(m.Cfg.Vocab-tokenize.NumSpecials)
		}
	}
	if len(targets) == 0 {
		return 0, 0
	}

	bw := &m.borrows
	c := m.encode(masked, len(masked), true)
	logits, lc := head.Forward(c.hidden, bw)
	dLogits := bw.Borrow(logits.Rows, logits.Cols) // only target rows are written
	total := 0.0
	inv := 1 / float64(len(targets))
	p := tensor.GetVecDirty(logits.Cols) // SoftmaxVecInto fully assigns it
	defer tensor.PutVec(p)
	for _, t := range targets {
		tensor.SoftmaxVecInto(p, logits.Row(t))
		gold := ids[t]
		total += -math.Log(math.Max(p[gold], 1e-12))
		drow := dLogits.Row(t)
		copy(drow, p)
		drow[gold] -= 1
		for j := range drow {
			drow[j] *= inv
		}
	}
	dHidden := head.Backward(lc, dLogits, bw)
	m.encodeBackward(c, dHidden)
	bw.Release()
	return total * inv, len(targets)
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

// modelFormatVersion is the current gob wire-format version: the classifier
// parameters in Params order. Versions 0 (the historical format without the
// Version field — gob decodes a missing field as zero) and 1 additionally
// carried the pretraining head, "mlm.W" and "mlm.b", ahead of the four
// classifier-head tensors; Load still reads both. Bump this when the layout
// changes incompatibly.
const modelFormatVersion = 2

// modelFile is the gob wire format.
type modelFile struct {
	Version int
	Cfg     Config
	Names   []string
	Shapes  [][2]int
	Data    [][]float64
}

// Save writes the model to w.
func (m *PragFormer) Save(w io.Writer) error {
	mf := modelFile{Version: modelFormatVersion, Cfg: m.Cfg}
	for _, p := range m.Params() {
		mf.Names = append(mf.Names, p.Name)
		mf.Shapes = append(mf.Shapes, [2]int{p.W.Rows, p.W.Cols})
		mf.Data = append(mf.Data, p.W.Data)
	}
	return gob.NewEncoder(w).Encode(mf)
}

// SaveFile writes the model to a file path atomically: a crash or full
// disk mid-save never clobbers an existing artifact, and close errors are
// propagated instead of swallowed.
func (m *PragFormer) SaveFile(path string) error {
	return ckpt.WriteFileAtomic(path, m.Save)
}

// Load reads a model written by Save, validating the format version and
// every tensor manifest entry so a truncated or hand-corrupted file fails
// with a descriptive error instead of panicking, exhausting memory or
// silently loading partial weights. Cfg sizes nothing the file's own
// tensors have not vouched for: the model is assembled shape-first, each
// parameter is checked against its manifest entry, and the decoded slice
// then becomes its storage — no second copy.
//
// The float file is the only model artifact: a file that starts with
// "PFQNT", the int8 format an older `pragformer quantize` wrote, is refused
// with an error that says what to load instead.
func Load(r io.Reader) (*PragFormer, error) {
	br := bufio.NewReader(r)
	if head, _ := br.Peek(5); string(head) == "PFQNT" {
		return nil, fmt.Errorf("core: this is a PFQNT int8 artifact, a format no longer read: " +
			"load the float model file it was quantized from, with -backend int8 to serve it as int8")
	}
	var mf modelFile
	if err := gob.NewDecoder(br).Decode(&mf); err != nil {
		return nil, fmt.Errorf("core: decode model file: %w", err)
	}
	if mf.Version > modelFormatVersion {
		return nil, fmt.Errorf("core: model file written by a newer/unknown format (version %d, this build reads <= %d)",
			mf.Version, modelFormatVersion)
	}
	if len(mf.Names) != len(mf.Data) || len(mf.Shapes) != len(mf.Data) {
		return nil, fmt.Errorf("core: corrupt model file: %d names / %d shapes / %d data tensors",
			len(mf.Names), len(mf.Shapes), len(mf.Data))
	}
	if err := mf.Cfg.Validate(); err != nil {
		return nil, err
	}
	// adopt holds tensor i against the parameter Cfg implies and, when they
	// agree, makes the decoded values the parameter's storage.
	adopt := func(i int, p *nn.Param) error {
		if i < 0 || i >= len(mf.Data) {
			return fmt.Errorf("core: model file has %d tensors, too few for its config (no %q)", len(mf.Data), p.Name)
		}
		if mf.Names[i] != p.Name {
			return fmt.Errorf("core: tensor %d name %q, want %q", i, mf.Names[i], p.Name)
		}
		if mf.Shapes[i] != [2]int{p.W.Rows, p.W.Cols} {
			return fmt.Errorf("core: tensor %q shape mismatch: file has %dx%d, config implies %dx%d",
				p.Name, mf.Shapes[i][0], mf.Shapes[i][1], p.W.Rows, p.W.Cols)
		}
		// Divide rather than multiply: a corrupt config's product may wrap.
		if n := len(mf.Data[i]); n%p.W.Cols != 0 || n/p.W.Cols != p.W.Rows {
			return fmt.Errorf("core: tensor %q has %d values, want %dx%d (truncated model file)",
				p.Name, n, p.W.Rows, p.W.Cols)
		}
		p.W.Data = mf.Data[i]
		return nil
	}
	mlmAt := -1 // where a version 0/1 file keeps the pretraining head
	if mf.Version < 2 {
		// Checked like every other tensor, then dropped.
		mlmAt = len(mf.Data) - 6
		for k, p := range nn.NewLinear("mlm", mf.Cfg.D, mf.Cfg.Vocab, nil).Params() {
			if err := adopt(mlmAt+k, p); err != nil {
				return nil, err
			}
		}
	}
	next := 0
	m, err := assemble(mf.Cfg, 0, func(ps []*nn.Param) error {
		for _, p := range ps {
			if next == mlmAt {
				next += 2
			}
			if err := adopt(next, p); err != nil {
				return err
			}
			next++
		}
		return nil
	})
	if err == nil && next != len(mf.Data) {
		return nil, fmt.Errorf("core: model file has %d tensors, want %d", len(mf.Data), next)
	}
	return m, err
}

// LoadFile reads a model from a file path.
func LoadFile(path string) (*PragFormer, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// CopyEncoderFrom copies encoder weights from src (transfer learning: MLM
// pretraining → task fine-tuning). Head parameters stay freshly initialized.
func (m *PragFormer) CopyEncoderFrom(src *PragFormer) error {
	dst := m.EncoderParams()
	from := src.EncoderParams()
	if len(dst) != len(from) {
		return fmt.Errorf("core: encoder param count mismatch %d vs %d", len(dst), len(from))
	}
	for i := range dst {
		if dst[i].W.Rows != from[i].W.Rows || dst[i].W.Cols != from[i].W.Cols {
			return fmt.Errorf("core: encoder param %q shape mismatch", dst[i].Name)
		}
		copy(dst[i].W.Data, from[i].W.Data)
	}
	return nil
}
