// Package tokenize converts code snippets into the token sequences the
// models consume: the paper's four code representations (Text, Replaced-
// Text, AST, Replaced-AST — §4.2, Table 6), a frequency-based vocabulary
// with special tokens, and the type-level corpus statistics of Table 7.
package tokenize

import (
	"fmt"

	"pragformer/internal/cast"
	"pragformer/internal/clex"
	"pragformer/internal/cparse"
)

// Representation selects how a snippet is rendered into tokens.
type Representation int

const (
	// Text is the raw lexical token stream.
	Text Representation = iota
	// RText is Text after canonical identifier replacement (var0, arr0...).
	RText
	// AST is the DFS serialization of the parse tree.
	AST
	// RAST is AST after identifier replacement.
	RAST
)

// String names the representation as the paper does.
func (r Representation) String() string {
	switch r {
	case Text:
		return "Text"
	case RText:
		return "Replaced-Text"
	case AST:
		return "AST"
	default:
		return "Replaced-AST"
	}
}

// Representations lists all four in the paper's order.
var Representations = []Representation{Text, RText, AST, RAST}

// Extract renders code into tokens under the chosen representation.
func Extract(code string, repr Representation) ([]string, error) {
	switch repr {
	case Text:
		return lexTokens(code)
	case RText, AST, RAST:
		// The tree is dead once rendered: its slabs go back to the parser
		// pool. A parse with an error is rejected as a whole.
		t := cparse.ParseTree(code)
		defer t.Release()
		if len(t.Errs) > 0 {
			return nil, t.Errs[0]
		}
		if repr == RText {
			cast.Rename(t.File)
			return lexTokens(cast.Print(t.File))
		}
		stripPragmaNodes(t.File)
		if repr == RAST {
			cast.Rename(t.File)
		}
		return cast.SerializeTokens(t.File), nil
	}
	return nil, fmt.Errorf("tokenize: unknown representation %d", repr)
}

// stripPragmaNodes unwraps PragmaStmt nodes so directive text never reaches
// the model input (label leakage).
func stripPragmaNodes(f *cast.File) {
	for i, it := range f.Items {
		if ps, ok := it.(*cast.PragmaStmt); ok {
			if ps.Stmt != nil {
				f.Items[i] = ps.Stmt
			} else {
				f.Items[i] = &cast.Empty{}
			}
		}
	}
	cast.Walk(f, func(n cast.Node) bool {
		if b, ok := n.(*cast.Block); ok {
			for i, s := range b.Stmts {
				if ps, ok := s.(*cast.PragmaStmt); ok {
					if ps.Stmt != nil {
						b.Stmts[i] = ps.Stmt
					} else {
						b.Stmts[i] = &cast.Empty{}
					}
				}
			}
		}
		return true
	})
}

// lexTokens returns the raw token texts, skipping pragmas (the label must
// never leak into the model input), streamed from the lexer as EncodeText
// streams its ids.
func lexTokens(code string) ([]string, error) {
	var out []string
	lx := clex.New(code)
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		if t.Kind == clex.EOF {
			return out, nil
		}
		if t.Kind != clex.Pragma {
			out = append(out, t.Text)
		}
	}
}

// Special token ids, fixed across all vocabularies.
const (
	PAD  = 0
	UNK  = 1
	CLS  = 2
	MASK = 3
	// NumSpecials is the count of reserved ids.
	NumSpecials = 4
)

// Vocab maps token strings to dense ids.
type Vocab struct {
	byToken map[string]int
	tokens  []string
}

// BuildVocab indexes every token type appearing at least minFreq times in
// seqs. Ids are assigned in first-appearance order after the specials, so
// vocabularies are deterministic.
func BuildVocab(seqs [][]string, minFreq int) *Vocab {
	if minFreq < 1 {
		minFreq = 1
	}
	counts := map[string]int{}
	var order []string
	for _, seq := range seqs {
		for _, tok := range seq {
			if counts[tok] == 0 {
				order = append(order, tok)
			}
			counts[tok]++
		}
	}
	v := &Vocab{byToken: map[string]int{}}
	v.tokens = append(v.tokens, "[PAD]", "[UNK]", "[CLS]", "[MASK]")
	for _, tok := range order {
		if counts[tok] >= minFreq {
			v.byToken[tok] = len(v.tokens)
			v.tokens = append(v.tokens, tok)
		}
	}
	return v
}

// Size returns the vocabulary size including specials.
func (v *Vocab) Size() int { return len(v.tokens) }

// ID returns the id for a token, or UNK.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.byToken[tok]; ok {
		return id
	}
	return UNK
}

// Token returns the string for an id.
func (v *Vocab) Token(id int) string {
	if id < 0 || id >= len(v.tokens) {
		return "[UNK]"
	}
	return v.tokens[id]
}

// Contains reports whether tok is in-vocabulary.
func (v *Vocab) Contains(tok string) bool {
	_, ok := v.byToken[tok]
	return ok
}

// Encode produces [CLS] + token ids, truncated to maxLen total positions.
// Sequences are not padded; the model handles variable lengths.
func (v *Vocab) Encode(tokens []string, maxLen int) []int {
	if maxLen < 1 {
		maxLen = 1
	}
	ids := make([]int, 0, min(len(tokens)+1, maxLen))
	ids = append(ids, CLS)
	for _, tok := range tokens {
		if len(ids) >= maxLen {
			break
		}
		ids = append(ids, v.ID(tok))
	}
	return ids
}

// EncodeText appends Encode over Extract(code, Text) to dst in one
// streaming pass: each token's text goes straight to its id, so neither the
// tokens nor their strings are materialised. Storing stops at maxLen ids;
// lexing runs on to the end, so a lexical error anywhere in code still fails
// it as Extract would, and then dst comes back as it was. A dst without room
// grows once, whatever the length.
func (v *Vocab) EncodeText(dst []int, code string, maxLen int) ([]int, error) {
	if maxLen < 1 {
		maxLen = 1
	}
	n := len(dst)
	// A token is at least one byte, so len(code)+1 bounds the sequence.
	if need := min(len(code)+1, maxLen); cap(dst)-n < need {
		dst = append(make([]int, 0, max(n+need, 2*cap(dst))), dst...)
	}
	dst = append(dst, CLS)
	lx := clex.New(code)
	for {
		t, err := lx.Next()
		if err != nil {
			return dst[:n], err
		}
		if t.Kind == clex.EOF {
			return dst, nil
		}
		if t.Kind != clex.Pragma && len(dst)-n < maxLen {
			dst = append(dst, v.ID(t.Text))
		}
	}
}

// Decode maps ids back to token strings (diagnostics).
func (v *Vocab) Decode(ids []int) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Token(id)
	}
	return out
}

// Stats are the Table 7 type-level corpus statistics for one representation.
type Stats struct {
	Representation Representation
	TrainVocab     int     // token types in the training set
	OOVTypes       int     // validation+test types missing from training
	AvgLength      float64 // mean tokens per snippet
}

// ComputeStats derives Table 7 numbers from tokenized splits.
func ComputeStats(repr Representation, train, validtest [][]string) Stats {
	trainTypes := map[string]bool{}
	totalToks := 0
	for _, seq := range train {
		totalToks += len(seq)
		for _, tok := range seq {
			trainTypes[tok] = true
		}
	}
	oov := map[string]bool{}
	for _, seq := range validtest {
		totalToks += len(seq)
		for _, tok := range seq {
			if !trainTypes[tok] {
				oov[tok] = true
			}
		}
	}
	n := len(train) + len(validtest)
	avg := 0.0
	if n > 0 {
		avg = float64(totalToks) / float64(n)
	}
	return Stats{
		Representation: repr,
		TrainVocab:     len(trainTypes),
		OOVTypes:       len(oov),
		AvgLength:      avg,
	}
}
