// Package dataset turns the Open-OMP corpus into the paper's two supervised
// datasets (§3.2, Table 5): a directive dataset (RQ1: does this snippet need
// `#pragma omp parallel for`?) over all records, and a clause dataset (RQ2:
// does this parallelizable snippet need a private / reduction clause?) over
// the records that carry directives. Splits are 80/10/10, stratified per
// label so each split keeps the corpus's label balance.
package dataset

import (
	"math/rand"

	"pragformer/internal/corpus"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

// Task selects which classification label an instance carries.
type Task int

const (
	// TaskDirective is RQ1: need for an OpenMP directive.
	TaskDirective Task = iota
	// TaskPrivate is RQ2a: need for a private clause.
	TaskPrivate
	// TaskReduction is RQ2b: need for a reduction clause.
	TaskReduction
)

// String names the task.
func (t Task) String() string {
	switch t {
	case TaskDirective:
		return "directive"
	case TaskPrivate:
		return "private"
	default:
		return "reduction"
	}
}

// Instance is one labeled example.
type Instance struct {
	Rec   *corpus.Record
	Label bool
}

// Split is the standard train/validation/test partition.
type Split struct {
	Train, Valid, Test []Instance
}

// Sizes returns the three split sizes (Table 5 rows).
func (s Split) Sizes() (train, valid, test int) {
	return len(s.Train), len(s.Valid), len(s.Test)
}

// Vocab indexes every raw-text token of the training split (minimum
// frequency 1): the vocabulary a classifier trained on the split reads.
func (s Split) Vocab() (*tokenize.Vocab, error) {
	seqs := make([][]string, len(s.Train))
	for i, in := range s.Train {
		toks, err := tokenize.Extract(in.Rec.Code, tokenize.Text)
		if err != nil {
			return nil, err
		}
		seqs[i] = toks
	}
	return tokenize.BuildVocab(seqs, 1), nil
}

// Examples encodes instances as model input: the raw-text ids under v,
// truncated to maxLen, with each instance's label.
func Examples(ins []Instance, v *tokenize.Vocab, maxLen int) ([]train.Example, error) {
	out := make([]train.Example, len(ins))
	for i, in := range ins {
		ids, err := v.EncodeText(nil, in.Rec.Code, maxLen)
		if err != nil {
			return nil, err
		}
		out[i] = train.Example{IDs: ids, Label: in.Label}
	}
	return out, nil
}

// label computes an instance label for a record under a task.
func label(r *corpus.Record, t Task) bool {
	switch t {
	case TaskDirective:
		return r.HasOMP()
	case TaskPrivate:
		return r.NeedsPrivate()
	default:
		return r.NeedsReduction()
	}
}

// Options configures dataset construction.
type Options struct {
	// Seed drives the shuffle; equal seeds give identical splits.
	Seed int64
	// Balance subsamples the majority class to the minority size, the
	// paper's "balanced labels" setup for the clause tasks.
	Balance bool
}

// Directive builds the RQ1 dataset over all corpus records.
func Directive(c *corpus.Corpus, opt Options) Split {
	return build(c.Records, TaskDirective, opt)
}

// Clause builds an RQ2 dataset over records with directives.
func Clause(c *corpus.Corpus, task Task, opt Options) Split {
	if task == TaskDirective {
		panic("dataset: Clause called with TaskDirective")
	}
	return build(c.Positives(), task, opt)
}

// build shuffles, optionally balances, and splits stratified by label.
func build(records []*corpus.Record, task Task, opt Options) Split {
	rng := rand.New(rand.NewSource(opt.Seed))
	var pos, neg []Instance
	for _, r := range records {
		in := Instance{Rec: r, Label: label(r, task)}
		if in.Label {
			pos = append(pos, in)
		} else {
			neg = append(neg, in)
		}
	}
	rng.Shuffle(len(pos), func(i, j int) { pos[i], pos[j] = pos[j], pos[i] })
	rng.Shuffle(len(neg), func(i, j int) { neg[i], neg[j] = neg[j], neg[i] })

	if opt.Balance {
		n := min(len(pos), len(neg))
		pos, neg = pos[:n], neg[:n]
	}

	var s Split
	appendClass := func(ins []Instance) {
		nTest := len(ins) / 10
		nValid := len(ins) / 10
		nTrain := len(ins) - nTest - nValid
		s.Train = append(s.Train, ins[:nTrain]...)
		s.Valid = append(s.Valid, ins[nTrain:nTrain+nValid]...)
		s.Test = append(s.Test, ins[nTrain+nValid:]...)
	}
	appendClass(pos)
	appendClass(neg)

	// Interleave classes so minibatches see both labels.
	rng.Shuffle(len(s.Train), func(i, j int) { s.Train[i], s.Train[j] = s.Train[j], s.Train[i] })
	rng.Shuffle(len(s.Valid), func(i, j int) { s.Valid[i], s.Valid[j] = s.Valid[j], s.Valid[i] })
	rng.Shuffle(len(s.Test), func(i, j int) { s.Test[i], s.Test[j] = s.Test[j], s.Test[i] })
	return s
}

// PositiveFraction returns the share of true labels in a set.
func PositiveFraction(ins []Instance) float64 {
	if len(ins) == 0 {
		return 0
	}
	n := 0
	for _, in := range ins {
		if in.Label {
			n++
		}
	}
	return float64(n) / float64(len(ins))
}
