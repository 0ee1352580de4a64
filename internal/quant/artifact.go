package quant

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"pragformer/internal/ckpt"
	"pragformer/internal/nn"
	"pragformer/internal/tensor"
)

// PFQNT artifact format: the generic ckpt frame (magic/version/length/
// CRC-32C, see internal/ckpt/frame.go) around a gob payload carrying the
// config plus two tensor manifests — the int8 weight tensors with their
// per-channel scales, and the float tensors (embeddings, layer norms,
// biases). SaveFile goes through ckpt.WriteFileAtomic, so a crash mid-save
// never clobbers an existing artifact, and Load validates every manifest
// entry (names, shapes, data and scale lengths) against a skeleton built
// from the config before a single value is copied — a truncated or
// hand-corrupted file fails with a descriptive error, never a panic or a
// silently partial model.

// FormatVersion is the current PFQNT payload format version.
const FormatVersion = 1

var magic = []byte("PFQNT")

// artifactFile is the gob payload.
type artifactFile struct {
	Cfg Config
	Eps float64 // layer-norm epsilon (uniform across the model)

	// int8 weight manifest, in walk order.
	QNames  []string
	QShapes [][2]int // out×in
	QData   [][]int8
	QScales [][]float32

	// float tensor manifest, in walk order.
	FNames  []string
	FShapes [][2]int
	FData   [][]float64
}

// walk visits every tensor of the model in the fixed wire order. Save and
// Load share it, so the two can never disagree about layout.
func (m *Model) walk(q func(name string, t *tensor.Int8Matrix), f func(name string, rows, cols int, data []float64)) {
	f("emb.tok", m.Tok.Rows, m.Tok.Cols, m.Tok.Data)
	f("emb.pos", m.Pos.Rows, m.Pos.Cols, m.Pos.Data)
	for l, b := range m.Blocks {
		prefix := fmt.Sprintf("block%d", l)
		f(prefix+".ln1.g", 1, len(b.LN1.Gamma), b.LN1.Gamma)
		f(prefix+".ln1.b", 1, len(b.LN1.Beta), b.LN1.Beta)
		for _, ql := range []struct {
			name string
			l    *Linear
		}{
			{prefix + ".attn.wq", b.Attn.WQ},
			{prefix + ".attn.wk", b.Attn.WK},
			{prefix + ".attn.wv", b.Attn.WV},
			{prefix + ".attn.wo", b.Attn.WO},
		} {
			q(ql.name+".W", ql.l.Wq)
			f(ql.name+".b", 1, len(ql.l.B), ql.l.B)
		}
		f(prefix+".ln2.g", 1, len(b.LN2.Gamma), b.LN2.Gamma)
		f(prefix+".ln2.b", 1, len(b.LN2.Beta), b.LN2.Beta)
		q(prefix+".ffn.l1.W", b.FF1.Wq)
		f(prefix+".ffn.l1.b", 1, len(b.FF1.B), b.FF1.B)
		q(prefix+".ffn.l2.W", b.FF2.Wq)
		f(prefix+".ffn.l2.b", 1, len(b.FF2.B), b.FF2.B)
	}
	f("final_ln.g", 1, len(m.FinalLN.Gamma), m.FinalLN.Gamma)
	f("final_ln.b", 1, len(m.FinalLN.Beta), m.FinalLN.Beta)
	q("fc1.W", m.FC1.Wq)
	f("fc1.b", 1, len(m.FC1.B), m.FC1.B)
	q("fc2.W", m.FC2.Wq)
	f("fc2.b", 1, len(m.FC2.B), m.FC2.B)
}

// newSkeleton allocates a model of the config's shapes with zeroed tensors,
// the target Load copies a validated manifest into.
func newSkeleton(cfg Config) *Model {
	newLN := func() nn.Norm {
		return nn.Norm{Gamma: make([]float64, cfg.D), Beta: make([]float64, cfg.D)}
	}
	newLin := func(in, out int) *Linear {
		return &Linear{Wq: tensor.NewInt8(out, in), B: make([]float64, out)}
	}
	m := &Model{
		Cfg:     cfg,
		Tok:     tensor.New(cfg.Vocab, cfg.D),
		Pos:     tensor.New(cfg.MaxLen, cfg.D),
		FinalLN: newLN(),
		FC1:     newLin(cfg.D, cfg.FCHidden),
		FC2:     newLin(cfg.FCHidden, 2),
	}
	for l := 0; l < cfg.Layers; l++ {
		m.Blocks = append(m.Blocks, &Block{
			LN1: newLN(),
			LN2: newLN(),
			Attn: &Attention{
				WQ:    newLin(cfg.D, cfg.D),
				WK:    newLin(cfg.D, cfg.D),
				WV:    newLin(cfg.D, cfg.D),
				WO:    newLin(cfg.D, cfg.D),
				Heads: cfg.Heads,
			},
			FF1: newLin(cfg.D, cfg.FFHidden),
			FF2: newLin(cfg.FFHidden, cfg.D),
		})
	}
	return m
}

// Save writes the quantized model in the framed PFQNT wire format. The
// wire format carries a single layer-norm epsilon; a model whose layer
// norms disagree (nothing in this repo builds one) is rejected rather than
// silently flattened to the final LN's value on the next load.
func (m *Model) Save(w io.Writer) error {
	for _, ln := range m.layerNorms() {
		if ln.Eps != m.FinalLN.Eps {
			return fmt.Errorf("quant: non-uniform layer-norm epsilon (%g vs %g): not representable in a PFQNT artifact",
				ln.Eps, m.FinalLN.Eps)
		}
	}
	af := artifactFile{Cfg: m.Cfg, Eps: m.FinalLN.Eps}
	m.walk(
		func(name string, t *tensor.Int8Matrix) {
			af.QNames = append(af.QNames, name)
			af.QShapes = append(af.QShapes, [2]int{t.Rows, t.Cols})
			af.QData = append(af.QData, t.Data)
			af.QScales = append(af.QScales, t.Scales)
		},
		func(name string, rows, cols int, data []float64) {
			af.FNames = append(af.FNames, name)
			af.FShapes = append(af.FShapes, [2]int{rows, cols})
			af.FData = append(af.FData, data)
		},
	)
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(af); err != nil {
		return fmt.Errorf("quant: encode artifact: %w", err)
	}
	return ckpt.WriteFramed(w, magic, FormatVersion, payload.Bytes())
}

// SaveFile writes the artifact to path atomically.
func (m *Model) SaveFile(path string) error {
	return ckpt.WriteFileAtomic(path, m.Save)
}

// Load reads a model written by Save. The frame (magic, version, length,
// CRC) is verified before decoding, and every manifest entry is validated
// against the config's skeleton before any value is copied.
func Load(r io.Reader) (*Model, error) {
	payload, err := ckpt.ReadFramed(r, magic, FormatVersion, "quantized model")
	if err != nil {
		return nil, err
	}
	var af artifactFile
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&af); err != nil {
		return nil, fmt.Errorf("quant: decode artifact: %w", err)
	}
	if err := af.Cfg.validate(); err != nil {
		return nil, err
	}
	if len(af.QNames) != len(af.QShapes) || len(af.QNames) != len(af.QData) || len(af.QNames) != len(af.QScales) {
		return nil, fmt.Errorf("quant: corrupt artifact: %d names / %d shapes / %d data / %d scales",
			len(af.QNames), len(af.QShapes), len(af.QData), len(af.QScales))
	}
	if len(af.FNames) != len(af.FShapes) || len(af.FNames) != len(af.FData) {
		return nil, fmt.Errorf("quant: corrupt artifact: %d float names / %d shapes / %d data",
			len(af.FNames), len(af.FShapes), len(af.FData))
	}

	m := newSkeleton(af.Cfg)
	// First pass: validate every entry against the skeleton's manifest.
	qi, fi := 0, 0
	var verr error
	check := func(cond bool, format string, args ...any) {
		if !cond && verr == nil {
			verr = fmt.Errorf("quant: "+format, args...)
		}
	}
	m.walk(
		func(name string, t *tensor.Int8Matrix) {
			i := qi
			qi++
			check(i < len(af.QNames), "artifact has %d int8 tensors, model wants more", len(af.QNames))
			if i >= len(af.QNames) {
				return
			}
			check(af.QNames[i] == name, "int8 tensor %d name %q, want %q", i, af.QNames[i], name)
			check(af.QShapes[i] == [2]int{t.Rows, t.Cols}, "int8 tensor %q shape mismatch", name)
			check(len(af.QData[i]) == t.Rows*t.Cols, "int8 tensor %q has %d values, want %d (truncated artifact)",
				name, len(af.QData[i]), t.Rows*t.Cols)
			check(len(af.QScales[i]) == t.Rows, "int8 tensor %q has %d scales, want %d",
				name, len(af.QScales[i]), t.Rows)
		},
		func(name string, rows, cols int, data []float64) {
			i := fi
			fi++
			check(i < len(af.FNames), "artifact has %d float tensors, model wants more", len(af.FNames))
			if i >= len(af.FNames) {
				return
			}
			check(af.FNames[i] == name, "float tensor %d name %q, want %q", i, af.FNames[i], name)
			check(af.FShapes[i] == [2]int{rows, cols}, "float tensor %q shape mismatch", name)
			check(len(af.FData[i]) == rows*cols, "float tensor %q has %d values, want %d (truncated artifact)",
				name, len(af.FData[i]), rows*cols)
		},
	)
	check(qi == len(af.QNames), "artifact has %d int8 tensors, model wants %d", len(af.QNames), qi)
	check(fi == len(af.FNames), "artifact has %d float tensors, model wants %d", len(af.FNames), fi)
	if verr != nil {
		return nil, verr
	}

	// Second pass: copy values into the skeleton.
	qi, fi = 0, 0
	m.walk(
		func(name string, t *tensor.Int8Matrix) {
			copy(t.Data, af.QData[qi])
			copy(t.Scales, af.QScales[qi])
			qi++
		},
		func(name string, rows, cols int, data []float64) {
			copy(data, af.FData[fi])
			fi++
		},
	)
	for _, ln := range m.layerNorms() {
		ln.Eps = af.Eps
	}
	return m, nil
}

// layerNorms lists every layer norm in the model.
func (m *Model) layerNorms() []*nn.Norm {
	lns := []*nn.Norm{&m.FinalLN}
	for _, b := range m.Blocks {
		lns = append(lns, &b.LN1, &b.LN2)
	}
	return lns
}

// LoadFile reads a PFQNT artifact from a file path.
func LoadFile(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// SniffFile reports whether the file at path starts with the PFQNT magic —
// the loader in cmd/serve uses it to pick the right decoder for a model
// artifact path. A file too short to hold the magic is simply not a PFQNT
// artifact; any other read failure is a real I/O error and is propagated,
// not misreported as "try the float decoder".
func SniffFile(path string) (bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	head := make([]byte, len(magic))
	switch _, err := io.ReadFull(f, head); err {
	case nil:
		return bytes.Equal(head, magic), nil
	case io.EOF, io.ErrUnexpectedEOF:
		return false, nil
	default:
		return false, fmt.Errorf("quant: sniff %s: %w", path, err)
	}
}
