// Command pragformer trains, evaluates and applies the PragFormer model.
//
// Subcommands:
//
//	pragformer train -corpus open_omp.jsonl -task directive -model model.gob
//	pragformer eval  -corpus open_omp.jsonl -task directive -model model.gob
//	pragformer predict -model model.gob -vocab vocab.txt file.c
//	pragformer scan -dir src/ -model model.gob -vocab vocab.txt -format sarif
//
// Predict runs one file through the advisor (the directive classifier plus
// the dependence analysis, which supplies every clause) and prints the
// probability, the directive and its corroboration tier.
//
// Scan walks a C source tree, extracts every for-loop, dedupes by content
// hash, batch-advises through the directive classifier and the dependence
// analysis (which supplies every clause), and emits
// a JSON or SARIF 2.1.0 report (see internal/scan and DESIGN.md).
//
// The float model file train writes is the only model artifact: `scan` and
// `serve` at -backend int8 quantize it at load time (per-channel symmetric
// post-training quantization, internal/quant).
//
// Train writes both the model weights and the vocabulary (one token per
// line) so predict can re-encode inputs identically; both artifacts are
// written atomically (temp file + rename), so a crash mid-save never
// corrupts an existing file.
//
// Long runs are crash-safe: `train -checkpoint run.ckpt` writes a resumable
// snapshot at every epoch end (tune with -checkpoint-every), SIGINT
// checkpoints and exits cleanly, and rerunning the same command with
// -resume continues the run — the resumed training is bit-identical to an
// uninterrupted one at the same -seed and -workers.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"pragformer/internal/advisor"
	"pragformer/internal/core"
	"pragformer/internal/corpus"
	"pragformer/internal/dataset"
	"pragformer/internal/tokenize"
	"pragformer/internal/train"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "train":
		cmdTrain(os.Args[2:])
	case "eval":
		cmdEval(os.Args[2:])
	case "predict":
		cmdPredict(os.Args[2:])
	case "scan":
		cmdScan(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pragformer {train|eval|predict|scan} [flags]")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pragformer:", err)
	os.Exit(1)
}

// must returns v, exiting on err.
func must[T any](v T, err error) T {
	if err != nil {
		fatal(err)
	}
	return v
}

// checkpointFailure extracts the non-interrupt component of a (possibly
// joined) Run/Resume error: the checkpoint write failure that rode along
// with ErrInterrupted, or nil if the interrupt was clean.
func checkpointFailure(err error) error {
	if u, ok := err.(interface{ Unwrap() []error }); ok {
		for _, e := range u.Unwrap() {
			if !errors.Is(e, train.ErrInterrupted) {
				return e
			}
		}
		return nil
	}
	if errors.Is(err, train.ErrInterrupted) {
		return nil
	}
	return err
}

func taskFromName(name string) dataset.Task {
	switch name {
	case "directive":
		return dataset.TaskDirective
	case "private":
		return dataset.TaskPrivate
	case "reduction":
		return dataset.TaskReduction
	}
	fatal(fmt.Errorf("unknown task %q (directive|private|reduction)", name))
	return 0
}

func splitFor(c *corpus.Corpus, task dataset.Task, seed int64) dataset.Split {
	if task == dataset.TaskDirective {
		return dataset.Directive(c, dataset.Options{Seed: seed})
	}
	return dataset.Clause(c, task, dataset.Options{Seed: seed, Balance: true})
}

func cmdTrain(args []string) {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	var (
		corpusPath = fs.String("corpus", "open_omp.jsonl", "corpus JSONL path")
		taskName   = fs.String("task", "directive", "task: directive|private|reduction")
		modelPath  = fs.String("model", "pragformer.gob", "output model path")
		vocabPath  = fs.String("vocab", "vocab.txt", "output vocabulary path")
		epochs     = fs.Int("epochs", 10, "training epochs")
		d          = fs.Int("d", 64, "model dimension")
		heads      = fs.Int("heads", 4, "attention heads")
		layers     = fs.Int("layers", 2, "encoder layers")
		lr         = fs.Float64("lr", 5e-4, "learning rate")
		seed       = fs.Int64("seed", 1, "seed")
		maxTrain   = fs.Int("max-train", 0, "cap training examples (0 = all)")
		workers    = fs.Int("workers", 1, "data-parallel training workers (<=1 sequential)")
		ckptPath   = fs.String("checkpoint", "", "write a resumable checkpoint here at epoch ends (SIGINT checkpoints then exits)")
		ckptEvery  = fs.Int("checkpoint-every", 1, "epochs between checkpoint writes")
		resume     = fs.Bool("resume", false, "resume the run captured in -checkpoint")
	)
	_ = fs.Parse(args)
	if *resume && *ckptPath == "" {
		fatal(fmt.Errorf("-resume requires -checkpoint"))
	}

	c, err := corpus.LoadFile(*corpusPath)
	if err != nil {
		fatal(err)
	}
	task := taskFromName(*taskName)
	split := splitFor(c, task, *seed)

	v := must(split.Vocab())
	trainSet := must(dataset.Examples(split.Train, v, core.DefaultMaxLen))
	validSet := must(dataset.Examples(split.Valid, v, core.DefaultMaxLen))
	if *maxTrain > 0 && len(trainSet) > *maxTrain {
		trainSet = trainSet[:*maxTrain]
	}

	m, err := core.New(core.Config{
		Vocab: v.Size(), MaxLen: core.DefaultMaxLen, D: *d, Heads: *heads, Layers: *layers, Dropout: 0.1,
	}, *seed)
	if err != nil {
		fatal(err)
	}

	cfg := train.Config{
		Epochs: *epochs, BatchSize: 16, LR: *lr, ClipNorm: 1, Seed: *seed,
		Workers:         *workers,
		CheckpointPath:  *ckptPath,
		CheckpointEvery: *ckptEvery,
		RestoreBest:     true, // the artifact is the best epoch reported below
		Progress:        func(s string) { fmt.Println(" ", s) },
	}
	if *ckptPath != "" {
		// SIGINT is a request to checkpoint at the next epoch boundary and
		// exit; a second SIGINT falls through to the default hard kill.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		interrupt := make(chan struct{})
		cfg.Interrupt = interrupt
		go func() {
			<-sig
			signal.Stop(sig)
			fmt.Println("\ninterrupt: writing checkpoint at epoch end, then exiting (^C again to kill)")
			close(interrupt)
		}()
	}

	fmt.Printf("training %s task: %d train / %d valid, vocab %d\n",
		task, len(trainSet), len(validSet), v.Size())
	var hist train.History
	if *resume {
		hist, err = train.Resume(m, trainSet, validSet, cfg)
	} else {
		hist, err = train.Run(m, trainSet, validSet, cfg)
	}
	if errors.Is(err, train.ErrInterrupted) {
		// The interrupt error may carry a joined checkpoint-write failure;
		// claiming "checkpoint saved" would then be exactly the silent data
		// loss this subsystem exists to prevent.
		if werr := checkpointFailure(err); werr != nil {
			fatal(fmt.Errorf("interrupted, but the final checkpoint write failed: %w (an earlier checkpoint at %s may still be resumable)", werr, *ckptPath))
		}
		fmt.Printf("interrupted after epoch %d/%d; checkpoint saved to %s — rerun with -resume to continue\n",
			len(hist.Epochs), *epochs, *ckptPath)
		os.Exit(130)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Printf("best epoch %d: valid accuracy %.3f\n",
		hist.BestEpoch+1, hist.Best().ValidAccuracy)

	if err := m.SaveFile(*modelPath); err != nil {
		fatal(err)
	}
	if err := v.SaveFile(*vocabPath); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s and %s\n", *modelPath, *vocabPath)
}

func cmdEval(args []string) {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	var (
		corpusPath = fs.String("corpus", "open_omp.jsonl", "corpus JSONL path")
		taskName   = fs.String("task", "directive", "task")
		modelPath  = fs.String("model", "pragformer.gob", "model path")
		vocabPath  = fs.String("vocab", "vocab.txt", "vocabulary path")
		seed       = fs.Int64("seed", 1, "split seed (must match training)")
		workers    = fs.Int("workers", 1, "parallel evaluation workers")
	)
	_ = fs.Parse(args)

	c, err := corpus.LoadFile(*corpusPath)
	if err != nil {
		fatal(err)
	}
	m, err := core.LoadFile(*modelPath)
	if err != nil {
		fatal(err)
	}
	v, err := tokenize.LoadVocabFile(*vocabPath)
	if err != nil {
		fatal(err)
	}
	split := splitFor(c, taskFromName(*taskName), *seed)
	testSet := must(dataset.Examples(split.Test, v, m.Cfg.MaxLen))
	loss, acc := train.EvaluateParallel(m, testSet, *workers)
	fmt.Printf("test: %d examples, loss %.4f, accuracy %.3f\n", len(testSet), loss, acc)
}

func cmdPredict(args []string) {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	var (
		modelPath = fs.String("model", "pragformer.gob", "model path")
		vocabPath = fs.String("vocab", "vocab.txt", "vocabulary path")
	)
	_ = fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("predict needs exactly one C file argument"))
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fatal(err)
	}
	models, err := advisor.LoadModels(*modelPath, *vocabPath)
	if err != nil {
		fatal(err)
	}
	s, err := models.Suggest(string(src))
	if err != nil {
		fatal(err)
	}
	verdict := "no OpenMP directive needed"
	if s.Parallelize {
		verdict = fmt.Sprintf("%s [%s]", s.Directive, s.Tier())
	}
	fmt.Printf("p(parallelizable) = %.3f → %s\n", s.Probability, verdict)
}
