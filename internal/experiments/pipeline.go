// Package experiments reproduces every table and figure in the paper's
// evaluation (§5). A Pipeline caches the expensive artifacts — generated
// corpus, splits, vocabularies, trained PragFormer/BoW models — so running
// the full suite trains each model exactly once. Two modes exist: Fast
// (small corpus and model, for tests and benchmarks) and Full (paper-scale
// corpus with a CPU-sized transformer, for cmd/experiments).
package experiments

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"

	"pragformer/internal/bow"
	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/metrics"
	"pragformer/internal/s2s"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// Mode selects experiment scale.
type Mode int

const (
	// Fast is the test/bench scale: small corpus, small model.
	Fast Mode = iota
	// Full is the paper scale: full corpus statistics and a larger model.
	Full
)

// Config configures a pipeline.
type Config struct {
	Mode Mode
	Seed int64
	// Workers is the data-parallel training width handed to train.Fit;
	// <=1 trains sequentially.
	Workers int
	// CheckpointDir, when set, makes the pipeline durable: every
	// PragFormer training run checkpoints to
	// <dir>/<task>-<repr>.ckpt at each epoch end, so a killed
	// `-mode full` restarts where it left off — finished models load
	// straight from their checkpoints (best-epoch weights), partial runs
	// resume bit-identically, and only untrained models start fresh.
	CheckpointDir string
	// ScanTree points the agreement study at a fixture tree to scan
	// alongside the corpus test split; empty skips that row (tests run
	// from package directories, cmd/experiments points it at
	// examples/scantree).
	ScanTree string
	// Progress, when set, receives status lines during long stages.
	Progress func(string)
}

// Params are the scale-dependent knobs.
type Params struct {
	CorpusTotal    int
	MaxTrain       int // cap on training examples per model (0 = all)
	D              int
	Heads          int
	Layers         int
	FFHidden       int
	Epochs         int
	MaxLen         int
	Batch          int
	LR             float64
	Dropout        float64
	PretrainEpochs int
	PretrainMax    int // cap on MLM pretraining sequences
	BoWEpochs      int
	LimeSamples    int
}

// ParamsFor returns the knobs for a mode.
func ParamsFor(mode Mode) Params {
	if mode == Full {
		return Params{
			CorpusTotal: corpus.DefaultTotal, MaxTrain: 2500,
			D: 64, Heads: 4, Layers: 2, FFHidden: 128,
			Epochs: 6, MaxLen: core.DefaultMaxLen, Batch: 16, LR: 5e-4, Dropout: 0.1,
			PretrainEpochs: 1, PretrainMax: 500,
			BoWEpochs: 30, LimeSamples: 300,
		}
	}
	return Params{
		CorpusTotal: 900, MaxTrain: 0,
		D: 32, Heads: 4, Layers: 1, FFHidden: 64,
		Epochs: 5, MaxLen: 64, Batch: 16, LR: 1.5e-3, Dropout: 0.05,
		PretrainEpochs: 0, PretrainMax: 200,
		BoWEpochs: 40, LimeSamples: 120,
	}
}

// Pipeline caches artifacts across experiments.
type Pipeline struct {
	Cfg Config
	P   Params

	corp     *corpus.Corpus
	poly     *corpus.Corpus
	spec     *corpus.Corpus
	dirSplit *dataset.Split
	clause   map[dataset.Task]*dataset.Split

	tokens map[tokKey][]string
	vocabs map[tokenize.Representation]*tokenize.Vocab
	models map[modelKey]*Trained
	bows   map[dataset.Task]*bow.Model
}

type tokKey struct {
	id   int
	repr tokenize.Representation
}

type modelKey struct {
	task dataset.Task
	repr tokenize.Representation
}

// Trained couples a model with its learning curve.
type Trained struct {
	Model   *core.PragFormer
	History train.History
}

// NewPipeline builds an empty pipeline for the config.
func NewPipeline(cfg Config) *Pipeline {
	return &Pipeline{
		Cfg:    cfg,
		P:      ParamsFor(cfg.Mode),
		clause: map[dataset.Task]*dataset.Split{},
		tokens: map[tokKey][]string{},
		vocabs: map[tokenize.Representation]*tokenize.Vocab{},
		models: map[modelKey]*Trained{},
		bows:   map[dataset.Task]*bow.Model{},
	}
}

func (p *Pipeline) progress(format string, args ...any) {
	if p.Cfg.Progress != nil {
		p.Cfg.Progress(fmt.Sprintf(format, args...))
	}
}

// Corpus returns the (cached) Open-OMP corpus.
func (p *Pipeline) Corpus() *corpus.Corpus {
	if p.corp == nil {
		p.progress("generating Open-OMP corpus (%d snippets)", p.P.CorpusTotal)
		p.corp = corpus.Generate(corpus.Config{Seed: p.Cfg.Seed, Total: p.P.CorpusTotal})
	}
	return p.corp
}

// PolyBench returns the held-out PolyBench-style suite.
func (p *Pipeline) PolyBench() *corpus.Corpus {
	if p.poly == nil {
		p.poly = corpus.GeneratePolyBench(p.Cfg.Seed + 100)
	}
	return p.poly
}

// SPEC returns the held-out SPEC-style suite.
func (p *Pipeline) SPEC() *corpus.Corpus {
	if p.spec == nil {
		p.spec = corpus.GenerateSPEC(p.Cfg.Seed + 200)
	}
	return p.spec
}

// DirectiveSplit returns the RQ1 dataset split.
func (p *Pipeline) DirectiveSplit() dataset.Split {
	if p.dirSplit == nil {
		s := dataset.Directive(p.Corpus(), dataset.Options{Seed: p.Cfg.Seed + 1})
		p.dirSplit = &s
	}
	return *p.dirSplit
}

// ClauseSplit returns an RQ2 dataset split with balanced labels (§5.3).
func (p *Pipeline) ClauseSplit(task dataset.Task) dataset.Split {
	if s, ok := p.clause[task]; ok {
		return *s
	}
	s := dataset.Clause(p.Corpus(), task, dataset.Options{Seed: p.Cfg.Seed + 2, Balance: true})
	p.clause[task] = &s
	return s
}

// Tokens returns the (cached) token sequence for a record and representation.
// Records that fail structured extraction fall back to raw text tokens.
func (p *Pipeline) Tokens(r *corpus.Record, repr tokenize.Representation) []string {
	key := tokKey{r.ID, repr}
	if t, ok := p.tokens[key]; ok {
		return t
	}
	toks, err := tokenize.Extract(r.Code, repr)
	if err != nil {
		toks, _ = tokenize.Extract(r.Code, tokenize.Text)
	}
	p.tokens[key] = toks
	return toks
}

// TokensFor tokenizes an out-of-corpus record (held-out suites use their own
// IDs; avoid cache collisions by bypassing the cache).
func (p *Pipeline) TokensFor(r *corpus.Record, repr tokenize.Representation) []string {
	toks, err := tokenize.Extract(r.Code, repr)
	if err != nil {
		toks, _ = tokenize.Extract(r.Code, tokenize.Text)
	}
	return toks
}

// Vocab returns the vocabulary for a representation, built over the
// directive training split (the clause tasks reuse it, as fine-tuning does).
func (p *Pipeline) Vocab(repr tokenize.Representation) *tokenize.Vocab {
	if v, ok := p.vocabs[repr]; ok {
		return v
	}
	split := p.DirectiveSplit()
	var seqs [][]string
	for _, in := range split.Train {
		seqs = append(seqs, p.Tokens(in.Rec, repr))
	}
	v := tokenize.BuildVocab(seqs, 1)
	p.vocabs[repr] = v
	return v
}

// ids encodes a record for the model. Text streams from the code straight to
// ids; the parsed representations, and a record that does not lex, go through
// Tokens and its fallback.
func (p *Pipeline) ids(r *corpus.Record, repr tokenize.Representation, maxLen int) []int {
	v := p.Vocab(repr)
	if repr == tokenize.Text {
		if ids, err := v.EncodeText(nil, r.Code, maxLen); err == nil {
			return ids
		}
	}
	return v.Encode(p.Tokens(r, repr), maxLen)
}

// examplesWithLen encodes instances with an explicit length cap (the seqlen
// ablation varies it independently of the pipeline default).
func (p *Pipeline) examplesWithLen(ins []dataset.Instance, repr tokenize.Representation, maxLen int) []train.Example {
	out := make([]train.Example, len(ins))
	for i, in := range ins {
		out[i] = train.Example{IDs: p.ids(in.Rec, repr, maxLen), Label: in.Label}
	}
	return out
}

// splitFor returns the dataset split for a task.
func (p *Pipeline) splitFor(task dataset.Task) dataset.Split {
	if task == dataset.TaskDirective {
		return p.DirectiveSplit()
	}
	return p.ClauseSplit(task)
}

// Model returns the trained PragFormer for (task, repr), training on first
// use with the pipeline's pretraining and model-selection recipe.
func (p *Pipeline) Model(task dataset.Task, repr tokenize.Representation) *Trained {
	key := modelKey{task, repr}
	if t, ok := p.models[key]; ok {
		return t
	}
	t := p.trainModel(task, repr, p.P, p.Cfg.Seed+int64(10*int(task)+int(repr)))
	p.models[key] = t
	return t
}

// trainModel runs the full recipe with explicit params (ablations reuse
// it), keeping the weights of the best validation epoch (§5.1 model
// selection). With Config.CheckpointDir set, the run is durable: it
// checkpoints every epoch, resumes a partial checkpoint bit-identically,
// and restores a finished one without training.
func (p *Pipeline) trainModel(task dataset.Task, repr tokenize.Representation, prm Params, seed int64) *Trained {
	v := p.Vocab(repr)
	split := p.splitFor(task)
	trainSet := p.examplesWithLen(split.Train, repr, prm.MaxLen)
	validSet := p.examplesWithLen(split.Valid, repr, prm.MaxLen)
	if prm.MaxTrain > 0 && len(trainSet) > prm.MaxTrain {
		trainSet = trainSet[:prm.MaxTrain]
	}

	cfg := core.Config{
		Vocab: v.Size(), MaxLen: prm.MaxLen, D: prm.D, Heads: prm.Heads,
		Layers: prm.Layers, FFHidden: prm.FFHidden, Dropout: prm.Dropout,
	}
	m, err := core.New(cfg, seed)
	if err != nil {
		panic(err) // config bugs are programmer errors
	}

	ckPath := p.checkpointPath(task, repr, prm, seed)
	tcfg := train.Config{
		Epochs: prm.Epochs, BatchSize: prm.Batch, LR: prm.LR,
		Warmup: len(trainSet) / max(1, prm.Batch), ClipNorm: 1.0, Seed: seed,
		Workers:        p.Cfg.Workers,
		CheckpointPath: ckPath,
		RestoreBest:    true, // §5.1 model selection
		Progress:       func(s string) { p.progress("  %s", s) },
	}

	if ckPath != "" {
		// A checkpoint's weights include MLM pretraining: resuming one skips
		// it, and a finished one runs no epoch.
		hist, err := train.Resume(m, trainSet, validSet, tcfg)
		switch {
		case err == nil:
			p.progress("resumed (%s, %s) from checkpoint %s", task, repr, ckPath)
			return &Trained{Model: m, History: hist}
		case !errors.Is(err, os.ErrNotExist):
			// A stale file or changed knobs; the failed Resume may have
			// moved m's weights.
			p.progress("checkpoint %s not resumable (%v); training from scratch", ckPath, err)
			if m, err = core.New(cfg, seed); err != nil {
				panic(err)
			}
		}
	}

	if prm.PretrainEpochs > 0 {
		p.pretrain(m, trainSet, prm, seed)
	}
	p.progress("training PragFormer (%s, %s): %d train / %d valid",
		task, repr, len(trainSet), len(validSet))
	hist, err := train.Run(m, trainSet, validSet, tcfg)
	if err != nil {
		panic(fmt.Errorf("experiments: training (%s, %s): %w", task, repr, err))
	}
	return &Trained{Model: m, History: hist}
}

// checkpointPath names the per-run checkpoint file, keyed by every input
// that identifies the run — task, representation, seed, worker count, and
// the training knobs — so ablation variants sharing a (task, repr) never
// collide. Empty when the pipeline is not durable.
func (p *Pipeline) checkpointPath(task dataset.Task, repr tokenize.Representation, prm Params, seed int64) string {
	if p.Cfg.CheckpointDir == "" {
		return ""
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%+v|w%d", prm, p.Cfg.Workers)
	return filepath.Join(p.Cfg.CheckpointDir,
		fmt.Sprintf("%s-%s-s%d-%08x.ckpt", task, repr, seed, h.Sum32()))
}

// pretrain runs the MLM stand-in for DeepSCC initialization.
func (p *Pipeline) pretrain(m *core.PragFormer, trainSet []train.Example, prm Params, seed int64) {
	seqs := trainSet
	if prm.PretrainMax > 0 && len(seqs) > prm.PretrainMax {
		seqs = seqs[:prm.PretrainMax]
	}
	p.progress("MLM pretraining on %d sequences × %d epochs", len(seqs), prm.PretrainEpochs)
	opt := train.NewAdamW(prm.LR)
	// The vocabulary head and every gradient live for this run only.
	head := m.NewMLMHead(seed + 78)
	params := m.MLMParams(head)
	defer train.ReleaseGrads(params)
	rng := rand.New(rand.NewSource(seed + 77))
	for epoch := 0; epoch < prm.PretrainEpochs; epoch++ {
		inBatch := 0
		train.ZeroGrads(params)
		for _, ex := range seqs {
			m.MLMLossAndBackward(head, ex.IDs, rng)
			inBatch++
			if inBatch == prm.Batch {
				train.OptStep(opt, params, inBatch, 1, 1)
				inBatch = 0
			}
		}
		if inBatch > 0 {
			train.OptStep(opt, params, inBatch, 1, 1)
		}
	}
}

// BoW returns the trained bag-of-words baseline for a task (Text repr).
func (p *Pipeline) BoW(task dataset.Task) *bow.Model {
	if m, ok := p.bows[task]; ok {
		return m
	}
	split := p.splitFor(task)
	m := bow.New(p.Vocab(tokenize.Text))
	var exs []bow.Example
	for _, in := range split.Train {
		exs = append(exs, bow.Example{Tokens: p.Tokens(in.Rec, tokenize.Text), Label: in.Label})
	}
	p.progress("training BoW baseline (%s): %d examples", task, len(exs))
	m.Train(exs, bow.TrainConfig{Epochs: p.P.BoWEpochs, LR: 0.1, L2: 1e-5, Seed: p.Cfg.Seed})
	p.bows[task] = m
	return m
}

// EvalModel scores a trained PragFormer on instances through the batched
// forward path.
func (p *Pipeline) EvalModel(t *Trained, ins []dataset.Instance, repr tokenize.Representation) metrics.Confusion {
	return p.EvalBackend(t.Model, ins, repr)
}

// EvalBackend scores any inference backend (float64 or int8) on instances
// through the batched forward path — the quant study compares the two.
func (p *Pipeline) EvalBackend(b core.Backend, ins []dataset.Instance, repr tokenize.Representation) metrics.Confusion {
	ids := make([][]int, len(ins))
	for i, in := range ins {
		ids[i] = p.ids(in.Rec, repr, p.P.MaxLen)
	}
	labels := predictLabels(b, ids)
	var c metrics.Confusion
	for i, in := range ins {
		c.Add(labels[i], in.Label)
	}
	return c
}

// evalBatch bounds how many sequences one batched forward stacks so the
// pooled activation matrices stay a bounded size on paper-scale test sets.
const evalBatch = 64

// predictLabels applies the paper's 0.5 threshold to PredictBatch run in
// bounded chunks, preserving input order.
func predictLabels(m core.Backend, ids [][]int) []bool {
	out := make([]bool, 0, len(ids))
	for start := 0; start < len(ids); start += evalBatch {
		for _, p := range m.PredictBatch(ids[start:min(start+evalBatch, len(ids))]) {
			out = append(out, p > 0.5)
		}
	}
	return out
}

// EvalBoW scores the BoW baseline on instances.
func (p *Pipeline) EvalBoW(m *bow.Model, ins []dataset.Instance) metrics.Confusion {
	var c metrics.Confusion
	for _, in := range ins {
		c.Add(m.PredictLabel(p.Tokens(in.Rec, tokenize.Text)), in.Label)
	}
	return c
}

// ComParResult carries the S2S evaluation plus its failure census.
type ComParResult struct {
	Confusion     metrics.Confusion
	ParseFailures int
}

// EvalComPar runs ComPar over instances for a task. Compile failures follow
// the paper's fall-back strategy: counted as negative predictions.
func (p *Pipeline) EvalComPar(ins []dataset.Instance, task dataset.Task) ComParResult {
	cp := s2s.NewComPar()
	var out ComParResult
	for _, in := range ins {
		res, err := cp.Compile(in.Rec.Code)
		pred := false
		if err != nil {
			out.ParseFailures++
		} else if res.Directive != nil {
			switch task {
			case dataset.TaskDirective:
				pred = true
			case dataset.TaskPrivate:
				pred = res.Directive.HasPrivate()
			case dataset.TaskReduction:
				pred = res.Directive.HasReduction()
			}
		}
		out.Confusion.Add(pred, in.Label)
	}
	return out
}

// InstancesOf converts a whole corpus into task instances (held-out suites).
func InstancesOf(c *corpus.Corpus, task dataset.Task) []dataset.Instance {
	var out []dataset.Instance
	for _, r := range c.Records {
		label := false
		switch task {
		case dataset.TaskDirective:
			label = r.HasOMP()
		case dataset.TaskPrivate:
			label = r.NeedsPrivate()
		case dataset.TaskReduction:
			label = r.NeedsReduction()
		}
		out = append(out, dataset.Instance{Rec: r, Label: label})
	}
	return out
}
