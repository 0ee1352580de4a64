// Package advisor composes the paper's pieces into the full pipeline its
// §6 sketches: generating entire OpenMP directives. The PragFormer
// directive classifier decides *whether* a loop gets a directive; the
// dependence analysis that agrees with it supplies the whole directive,
// every clause its parallel verdict depends on; and, following the paper's
// ComPar-combination proposal, an S2S result can be used to corroborate
// the suggestion.
//
// The pipeline is batch-first: SuggestBatch tokenizes every snippet, then
// runs the classifier exactly once over the whole batch through
// core.PredictBatch (one batched forward instead of N single ones), while
// the per-snippet dependence analysis and corroboration stay per-item.
// Suggest is the single-snippet convenience wrapper.
package advisor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"time"

	"pragformer/internal/clex"
	"pragformer/internal/core"
	"pragformer/internal/dep"
	"pragformer/internal/lime"
	"pragformer/internal/pragma"
	"pragformer/internal/s2s"
	"pragformer/internal/tokenize"
)

// Models bundles the directive classifier with its vocabulary, and holds
// nothing else that changes a verdict: a verdict depends on the snippet and
// the classifier alone, which is what lets every verdict store key it by
// the snippet's hash under a (backend, model) namespace. The classifier is
// a core.Backend, so a bundle can run on the float64 reference backend or
// the int8 quantized backend — WithBackend converts it. The paper's private
// and reduction classifiers are not part of a bundle: the analysis names
// every clause, so they are trained and scored in the experiments (Tables
// 9–10) only. Models is safe for concurrent use by multiple goroutines once
// constructed: suggestions only read the classifier.
type Models struct {
	Directive core.Backend
	Vocab     *tokenize.Vocab
	// NoExplain skips the LIME attribution on disagreements (the
	// perturbation forwards dominate a disagreement's cost). Attributions
	// are then always empty. Only corpus-wide studies set it; no serving or
	// scan path does, so its verdicts never reach a store.
	NoExplain bool

	// compar is the S2S compiler consulted to corroborate positive
	// suggestions; nil means the default trio. Only tests set it.
	compar s2s.Compiler
}

// defaultComPar is the corroborating compiler. ComPar and its members hold
// no state, so every bundle shares one.
var defaultComPar = s2s.NewComPar()

// EffectiveMaxLen returns the sequence cap suggestions encode with: the
// classifier's own input budget. Serving layers that encode snippets
// themselves must use the same cap.
func (m *Models) EffectiveMaxLen() int { return m.Directive.MaxSeqLen() }

// LoadModels reads a bundle from the artifacts `pragformer train` writes:
// the vocabulary and the float directive classifier. WithBackend derives
// the int8 classifier from it.
func LoadModels(directive, vocab string) (*Models, error) {
	v, err := tokenize.LoadVocabFile(vocab)
	if err != nil {
		return nil, err
	}
	m := &Models{Vocab: v}
	if m.Directive, err = core.LoadFile(directive); err != nil {
		return nil, err
	}
	return m, nil
}

// WithBackend returns a bundle whose classifier runs on the named compute
// backend. The empty name keeps the bundle as loaded. core.BackendFloat64
// requires the classifier to already be float64 (an int8 classifier cannot be
// dequantized back into a training-grade model). core.BackendInt8 quantizes
// a float classifier in place of deep conversion — an already-quantized one
// passes through. The receiver is never mutated; the converted bundle
// shares everything but the classifier.
func (m *Models) WithBackend(name string) (*Models, error) {
	if name == "" {
		return m, nil
	}
	d := m.Directive
	if d != nil && d.BackendName() != name {
		switch name {
		case core.BackendFloat64:
			return nil, fmt.Errorf("advisor: cannot serve an %s classifier on the %s backend",
				d.BackendName(), name)
		case core.BackendInt8:
			pf, ok := d.(*core.PragFormer)
			if !ok {
				return nil, fmt.Errorf("advisor: cannot quantize a %s classifier", d.BackendName())
			}
			q, err := core.Quantize(pf)
			if err != nil {
				return nil, err
			}
			d = q
		default:
			return nil, fmt.Errorf("advisor: unknown backend %q (%s|%s)",
				name, core.BackendFloat64, core.BackendInt8)
		}
	}
	out := *m
	out.Directive = d
	return &out, nil
}

// Suggester is the batch-suggestion capability consumers program against:
// scan.Dir drives it with chunked batches of unique loop snippets. Models
// is the canonical in-process implementation; the serving stack's /scan
// hands scan.Files a verdict function instead.
type Suggester interface {
	SuggestBatch(codes []string) ([]BatchItem, error)
}

// StagedSuggester is a Suggester that also takes a per-call stage hook, so
// a traced scan records the advisor's infer/corroborate splits beside its
// own stages. Models implements it.
type StagedSuggester interface {
	SuggestBatchStaged(codes []string, onStage func(string, time.Duration)) ([]BatchItem, error)
}

var (
	_ Suggester       = (*Models)(nil)
	_ StagedSuggester = (*Models)(nil)
)

// Tier grades how the model's positive verdict relates to the classical
// analyses. The ordering is meaningful for the agreeing tiers (higher =
// more independent support); TierDisagree sits below zero because it is not
// a weaker form of agreement but its own outcome — the paper's mined
// disagreement case.
type Tier int

const (
	// TierDisagree means the dependence analysis ran and found the loop NOT
	// parallelizable while the model says parallelize — the review case
	// (SARIF PF1003). The witness carries the analysis' reasons.
	TierDisagree Tier = iota - 1
	// TierModelOnly means only PragFormer supports the directive: the
	// dependence analysis could not run (unparseable snippet, no affine
	// loop header to analyze).
	TierModelOnly
	// TierAnalysisAgrees means the dependence analysis also finds the loop
	// parallelizable.
	TierAnalysisAgrees
	// TierCorroborated means an S2S member compiler independently inserted
	// a directive on top of analysis agreement — the paper's "verifying the
	// correctness" case. S2S results never upgrade a disagreement.
	TierCorroborated
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierCorroborated:
		return "model+analysis+compar"
	case TierAnalysisAgrees:
		return "model+analysis"
	case TierDisagree:
		return "disagree"
	default:
		return "model-only"
	}
}

// ParseTier inverts String. Unknown strings map to TierModelOnly, the
// tier that claims the least.
func ParseTier(s string) Tier {
	switch s {
	case "model+analysis+compar":
		return TierCorroborated
	case "model+analysis":
		return TierAnalysisAgrees
	case "disagree":
		return TierDisagree
	default:
		return TierModelOnly
	}
}

// Corroboration is the structured evidence behind a positive suggestion:
// instead of a single ratcheting confidence grade, it records what each
// analysis actually concluded so a disagreement is representable, not
// silently dropped.
type Corroboration struct {
	// Tier summarizes the evidence.
	Tier Tier
	// DepRan reports whether the dependence analysis produced a verdict
	// (the loop header was an analyzable normalized for-loop).
	DepRan bool
	// DepAgrees is the analysis' parallelizability verdict (meaningful only
	// when DepRan).
	DepAgrees bool
	// DepWitness carries the analysis' reasons — the carried-dependence or
	// reduction-pattern evidence from dep.Analysis.Reasons.
	DepWitness []string
	// Races carries the structured race witnesses behind a dependence
	// refutation: kind, both access sites (line/col within the canonical
	// snippet text), and the per-level direction/distance vector.
	Races []dep.Witness
	// Converted lists arrays whose refuting dependence the analysis rescued
	// via privatization or reduction recognition — loops that would have
	// been disagreements under the one-level engine.
	Converted []string
	// S2S holds the per-compiler corroboration verdicts of a positive
	// (empty on a negative).
	S2S []s2s.MemberVerdict
}

// attach takes a dependence analysis' evidence into the corroboration. The
// slices are the analysis' own, not copies: nothing writes to an analysis
// once it is built (the S2S members only read it), and from here on the
// verdict, its report form and any store it lands in share them read-only.
func (c *Corroboration) attach(analysis *dep.Analysis) {
	if !analysis.Header.OK {
		return
	}
	c.DepRan = true
	c.DepAgrees = analysis.Parallelizable
	c.DepWitness, c.Races, c.Converted = analysis.Reasons, analysis.Witnesses, analysis.Converted
}

// Suggestion is the advisor's output for one snippet.
type Suggestion struct {
	// Parallelize is the RQ1 verdict.
	Parallelize bool
	// Probability is the directive classifier's positive probability.
	Probability float64
	// Directive is the generated pragma (nil when Parallelize is false):
	// the agreeing analysis' own directive, or the bare `parallel for` when
	// no analysis supports one. It lives in its batch's one directive slab,
	// its clauses the analysis' own, and like the evidence is only read.
	Directive *pragma.Directive
	// Corroboration is the evidence behind a positive verdict.
	Corroboration Corroboration
	// Attributions is the LIME token attribution computed for
	// disagreements (TierDisagree): which tokens pushed the directive
	// classifier toward "parallelize" against the analysis' verdict. Fitted
	// on the classifier's hard labels and seeded from the snippet's content
	// hash, so agreeing backends produce identical attributions. Entries
	// are in token order, one per (truncated) input token.
	Attributions []lime.Attribution
}

// Tier is shorthand for s.Corroboration.Tier.
func (s *Suggestion) Tier() Tier { return s.Corroboration.Tier }

// BatchItem is one snippet's outcome within a SuggestBatch call: either a
// suggestion or a per-snippet error (unlexable input), never both.
type BatchItem struct {
	Suggestion *Suggestion
	Err        error
}

// Suggest runs the full pipeline over a single code snippet.
func (m *Models) Suggest(code string) (*Suggestion, error) {
	items, err := m.SuggestBatch([]string{code})
	if err != nil {
		return nil, err
	}
	return items[0].Suggestion, items[0].Err
}

// SuggestBatch runs the pipeline over a batch of snippets. Tokenization
// failures surface as per-item errors; the returned error is non-nil only
// when the Models themselves are unusable. The classifier runs once over
// the whole batch, so the per-call model overhead is amortized across
// snippets; results are identical to calling Suggest per snippet.
func (m *Models) SuggestBatch(codes []string) ([]BatchItem, error) {
	return m.SuggestBatchStaged(codes, nil)
}

// SuggestBatchStaged is SuggestBatch with a per-call stage-timing hook (nil
// disables): the serving engine and a traced scan thread theirs through
// here so infer/corroborate splits land in the trace. onStage, when set,
// receives the call's stage timings: "infer" (the batched classifier
// forwards) and "corroborate" (dependence analysis, S2S compiles, LIME
// attribution). Timing never influences verdicts.
func (m *Models) SuggestBatchStaged(codes []string, onStage func(string, time.Duration)) ([]BatchItem, error) {
	if m.Directive == nil || m.Vocab == nil {
		return nil, fmt.Errorf("advisor: directive model and vocabulary are required")
	}
	// Stage accounting: "infer" is the batched classifier forward,
	// "corroborate" the per-item dependence/S2S/LIME work. Both are emitted
	// exactly once per call (possibly zero) so span presence is
	// deterministic.
	var dInfer, dCorroborate time.Duration
	if onStage != nil {
		defer func() {
			onStage("infer", dInfer)
			onStage("corroborate", dCorroborate)
		}()
	}
	maxLen := m.EffectiveMaxLen()
	items := make([]BatchItem, len(codes))

	// Encode everything up front into borrowed scratch; the encodable
	// snippets form the batch, in items order. The scratch goes back as
	// soon as the classifier has read it.
	sc := idScratches.Get().(*idScratch)
	flat, batch := sc.flat[:0], sc.batch[:0]
	for i, code := range codes {
		n := len(flat)
		var err error
		if flat, err = m.Vocab.EncodeText(flat, code, maxLen); err != nil {
			items[i].Err = fmt.Errorf("advisor: %w", err)
			continue
		}
		batch = append(batch, flat[n:])
	}
	// flat may have moved as it grew: each sequence is re-cut from its
	// final array.
	n := 0
	for k, seq := range batch {
		batch[k] = flat[n : n+len(seq) : n+len(seq)]
		n += len(seq)
	}
	var probs []float64
	if len(batch) > 0 {
		t0 := time.Now()
		probs = m.Directive.PredictBatch(batch)
		dInfer = time.Since(t0)
	}
	sc.flat, sc.batch = flat, batch
	idScratches.Put(sc)
	if len(probs) == 0 {
		return items, nil
	}

	t0 := time.Now()
	// One allocation for the batch's suggestions, and one for the
	// directives of its positives, none when there are none.
	positives := 0
	for _, p := range probs {
		if p > 0.5 {
			positives++
		}
	}
	suggestions := make([]Suggestion, len(probs))
	directives := make([]pragma.Directive, 0, positives)
	j := 0
	for i := range items {
		if items[i].Err != nil {
			continue
		}
		s := &suggestions[j]
		s.Probability, s.Parallelize = probs[j], probs[j] > 0.5
		items[i].Suggestion = s
		if s.Parallelize {
			directives = directives[:len(directives)+1]
			s.Directive = &directives[len(directives)-1]
		}
		m.finish(s, codes[i])
		j++
	}
	dCorroborate = time.Since(t0)
	return items, nil
}

// finish completes a suggestion over the snippet's one s2s.Unit. Every
// verdict carries the dependence evidence: a refuted loop's race witnesses
// are a property of the code, not of the model's answer, and the scan
// report surfaces them. A positive also gets its directive, written into
// the slot s.Directive already points at, and its corroboration grade.
func (m *Models) finish(s *Suggestion, code string) {
	unit := s2s.NewUnit(code)
	defer unit.Release()
	analysis := unit.Analysis() // no header when no loop parses
	cor := &s.Corroboration
	cor.attach(&analysis)
	if !s.Parallelize {
		return
	}
	// An agreeing analysis supplies the directive: its parallel verdict is
	// sound only with every clause it names. Any other positive gets the
	// bare pragma, since no analysis supports a clause on it. A
	// disagreement is terminal: a successful S2S compile must not overwrite
	// "the analysis found a carried dependence" — that is exactly the
	// disagreement the paper mines.
	switch {
	case cor.DepRan && cor.DepAgrees:
		cor.Tier, *s.Directive = TierAnalysisAgrees, *analysis.Directive()
	case cor.DepRan:
		cor.Tier, *s.Directive = TierDisagree, pragma.Directive{ParallelFor: true}
	default:
		cor.Tier, *s.Directive = TierModelOnly, pragma.Directive{ParallelFor: true}
	}
	cor.S2S = m.compileEach(unit, code)
	if cor.Tier == TierAnalysisAgrees {
		for _, v := range cor.S2S {
			if v.Parallelized {
				cor.Tier = TierCorroborated
				break
			}
		}
	}
	if cor.Tier == TierDisagree && !m.NoExplain {
		s.Attributions = m.explainDisagreement(unit, code)
	}
}

// compileEach collects the per-compiler corroboration evidence: the
// default ComPar's member verdicts, or a test's stub compiler's single
// verdict under its own name.
func (m *Models) compileEach(unit *s2s.Unit, code string) []s2s.MemberVerdict {
	if m.compar != nil {
		res, err := m.compar.Compile(code)
		return []s2s.MemberVerdict{s2s.Flatten(m.compar.Name(), res, err)}
	}
	return defaultComPar.CompileUnit(unit)
}

// explainDisagreement runs LIME over the directive classifier's HARD label
// for a disagreeing snippet: which tokens push the model toward
// "parallelize" against the dependence analysis. Two determinism rules keep
// attributions reproducible across entry points and backends:
//
//   - the explainer is seeded from the snippet's content hash (the same
//     sha-256 the scanner dedupes on), not from any run state;
//   - the surrogate is fitted on thresholded labels (1.0/0.0), so backends
//     that agree on every perturbation label produce identical weights,
//     while raw probabilities would differ between float64 and int8.
//
// Attributions are returned in token order covering every (truncated)
// input token; consumers pick their own top-K by |weight|. This is the one
// place an advised loop's token strings exist: the classifier reads ids
// streamed from the text, and LIME reads the texts of the unit's lex of
// it. A disagreement's unit parsed the text without error, so those tokens
// run to EOF; the pragmas among them are dropped, as the encoder drops
// them, and the strings stop at the encode cap — the classifier never sees
// past it, and the surrogate fit is cubic in token count.
func (m *Models) explainDisagreement(unit *s2s.Unit, code string) []lime.Attribution {
	maxLen := m.EffectiveMaxLen()
	all := unit.Tokens()
	toks := make([]string, 0, min(len(all), maxLen))
	for _, t := range all {
		if t.Kind != clex.Pragma && t.Kind != clex.EOF && len(toks) < maxLen {
			toks = append(toks, t.Text)
		}
	}
	ex := lime.New(limeSeed(code))
	ex.Samples = limeSamples
	attrs := ex.ExplainVariants(toks, func(v lime.Variants, labels []float64) {
		m.variantLabels(toks, maxLen, v, labels)
	}, 0)
	slices.SortFunc(attrs, func(a, b lime.Attribution) int { return a.Index - b.Index })
	return attrs
}

// limeChunk is how many perturbed variants one attribution forward carries:
// the serving batch size (serve's MaxBatch, scan's BatchSize), so a chunk's
// activations fit the buffers the tensor pool already holds, where one
// forward over the whole perturbation set would grow the pool's matrices
// past anything serving leaves there, every explanation anew.
const limeChunk = 16

// limeSamples is the perturbation sample count of a disagreement attribution.
// It is a constant because attribution values depend on it: every entry point
// over one tree explains a loop identically only at one setting.
const limeSamples = 120

// idScratch is the reusable memory of a batch of id sequences: one flat
// backing and the batch of views into it — a SuggestBatchStaged batch, or
// one chunk of variantLabels' variants, whose once-encoded ids go in ids.
// Nothing in it outlives the call it served — the classifier reads a batch
// and keeps none of it.
type idScratch struct {
	ids, flat []int
	batch     [][]int
}

var idScratches = sync.Pool{New: func() any { return new(idScratch) }}

// variantLabels fills labels[i] with the directive classifier's hard label
// on variant i of toks. The tokens are encoded once; each variant's ids —
// [CLS] and the ids at its kept positions, cut at maxLen, which is what
// Vocab.Encode returns for the variant's tokens — are gathered into one
// chunk-sized backing. Both backends classify a sequence independently of
// its batch, so the chunked labels are those of one whole-set forward.
func (m *Models) variantLabels(toks []string, maxLen int, v lime.Variants, labels []float64) {
	sc := idScratches.Get().(*idScratch)
	defer idScratches.Put(sc)
	ids := append(sc.ids[:0], tokenize.CLS) // [CLS], then every token's id
	for _, tok := range toks {
		ids = append(ids, m.Vocab.ID(tok))
	}
	if size := limeChunk * min(len(ids), maxLen); cap(sc.flat) < size {
		sc.flat = make([]int, size)
	}
	flat, batch := sc.flat[:cap(sc.flat)], sc.batch
	for lo := 0; lo < v.Len(); lo += limeChunk {
		hi := min(lo+limeChunk, v.Len())
		batch = batch[:0]
		n := 0
		for i := lo; i < hi; i++ {
			kept := v.Kept(i)
			kept = kept[:min(len(kept), maxLen-1)]
			seq := flat[n : n+1+len(kept)]
			n += len(seq)
			seq[0] = ids[0]
			for k, p := range kept {
				seq[1+k] = ids[1+p]
			}
			batch = append(batch, seq)
		}
		for i, p := range m.Directive.PredictBatch(batch) {
			labels[lo+i] = 0
			if p > 0.5 {
				labels[lo+i] = 1
			}
		}
	}
	sc.ids, sc.batch = ids, batch
}

// limeSeed derives the attribution seed from the snippet text itself, so
// every entry point (CLI, HTTP, direct advisor) and every backend explains
// a given loop identically.
func limeSeed(code string) int64 {
	sum := SnippetSum(code)
	return int64(binary.BigEndian.Uint64(sum[:8]))
}

// SnippetSum is the sha-256 of a snippet's text, a string or the bytes it
// is printed in. The text goes to the hash through a fixed chunk on the
// stack, so a snippet of any length is hashed without a copy of it on the
// heap. scan.HashSnippet, the key of every verdict store and of the tier's
// routing, is its hex form.
func SnippetSum[T string | []byte](text T) (sum [sha256.Size]byte) {
	h := sha256.New()
	var chunk [512]byte
	for len(text) > 0 {
		n := copy(chunk[:], text)
		h.Write(chunk[:n])
		text = text[n:]
	}
	h.Sum(sum[:0])
	return sum
}

// Annotate returns the snippet with the suggested directive prepended, or
// the snippet unchanged when no directive is suggested.
func (s *Suggestion) Annotate(code string) string {
	if s.Directive == nil {
		return code
	}
	return s.Directive.String() + "\n" + code
}
