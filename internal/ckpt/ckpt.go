package ckpt

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"pragformer/internal/nn"
)

// Checkpoint wire format: a "PFCKPT" frame (see frame.go) whose payload is
// a gob-encoded Snapshot. The version gates decoding: files written by a
// newer format fail with a descriptive error instead of an opaque gob
// panic. The CRC guards the payload; the length guards against truncation.

// FormatVersion is the current checkpoint format version.
const FormatVersion = 1

var magic = []byte("PFCKPT")

// EpochRecord mirrors one train.EpochStats row without importing train
// (train imports ckpt).
type EpochRecord struct {
	Epoch         int
	TrainLoss     float64
	ValidLoss     float64
	ValidAccuracy float64
}

// Snapshot is everything a training run needs to restart bit-identically:
// the primary weights, the full AdamW state, the shuffler and dropout RNG
// states, the learning curve so far, and the best-epoch weights for model
// selection.
type Snapshot struct {
	// Run identity — Resume refuses a checkpoint whose Seed or Workers
	// disagree with the resuming config, because the determinism contract
	// only holds at the same (seed, W).
	Seed    int64
	Workers int

	// NextEpoch is the first epoch the resumed run executes; a snapshot
	// with NextEpoch >= the configured epoch count is a finished run.
	NextEpoch int

	// Shuffler is the Fisher-Yates RNG state after NextEpoch epochs.
	Shuffler uint64
	// RNG holds the dropout stream state of the primary model (index 0)
	// and each training replica, in replica order. Empty when the model
	// has no serializable RNG (dropout-free models).
	RNG []uint64

	// Full AdamW state, in parameter order.
	OptStep int
	OptM    [][]float64
	OptV    [][]float64

	// ParamNames/ParamShapes validate that the resuming model's parameter
	// list matches the checkpointed one before any weight is copied.
	ParamNames  []string
	ParamShapes [][2]int
	// Weights are the current (last-epoch) parameter values.
	Weights [][]float64
	// BestWeights are the parameter values at the best validation epoch
	// (the paper's model-selection rule), so a restart never loses the
	// selected model even when the best epoch predates the crash.
	BestWeights [][]float64
	BestLoss    float64

	// Learning curve so far.
	Epochs    []EpochRecord
	BestEpoch int
}

// Save writes the snapshot in the framed wire format.
func (s *Snapshot) Save(w io.Writer) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(s); err != nil {
		return fmt.Errorf("ckpt: encode snapshot: %w", err)
	}
	return writeFramed(w, payload.Bytes())
}

// SaveFile writes the snapshot to path atomically.
func (s *Snapshot) SaveFile(path string) error {
	return WriteFileAtomic(path, s.Save)
}

// Load reads a snapshot written by Save, verifying magic, version, length,
// and CRC before decoding.
func Load(r io.Reader) (*Snapshot, error) {
	payload, err := readFramed(r)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&s); err != nil {
		return nil, fmt.Errorf("ckpt: decode snapshot: %w", err)
	}
	return &s, nil
}

// LoadFile reads a snapshot from path.
func LoadFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// CaptureParams records params' names, shapes, and a deep copy of their
// current weight values into the snapshot.
func (s *Snapshot) CaptureParams(params []*nn.Param) {
	s.ParamNames = make([]string, len(params))
	s.ParamShapes = make([][2]int, len(params))
	s.Weights = CopyWeights(params)
	for i, p := range params {
		s.ParamNames[i] = p.Name
		s.ParamShapes[i] = [2]int{p.W.Rows, p.W.Cols}
	}
}

// ApplyWeights copies the given weight vectors (s.Weights or
// s.BestWeights) into params after validating count, names, shapes, and
// vector lengths against the snapshot's parameter manifest.
func (s *Snapshot) ApplyWeights(params []*nn.Param, weights [][]float64) error {
	if len(params) != len(s.ParamNames) || len(weights) != len(s.ParamNames) || len(s.ParamShapes) != len(s.ParamNames) {
		return fmt.Errorf("ckpt: snapshot has %d tensors (%d weight vectors), model has %d",
			len(s.ParamNames), len(weights), len(params))
	}
	for i, p := range params {
		if p.Name != s.ParamNames[i] {
			return fmt.Errorf("ckpt: tensor %d is %q in snapshot, %q in model", i, s.ParamNames[i], p.Name)
		}
		sh := s.ParamShapes[i]
		if p.W.Rows != sh[0] || p.W.Cols != sh[1] {
			return fmt.Errorf("ckpt: tensor %q shape %dx%d in snapshot, %dx%d in model",
				p.Name, sh[0], sh[1], p.W.Rows, p.W.Cols)
		}
		if len(weights[i]) != sh[0]*sh[1] {
			return fmt.Errorf("ckpt: tensor %q has %d values, want %d (corrupt snapshot)",
				p.Name, len(weights[i]), sh[0]*sh[1])
		}
	}
	for i, p := range params {
		copy(p.W.Data, weights[i])
	}
	return nil
}

// CopyWeights deep-copies the current weight vectors of params.
func CopyWeights(params []*nn.Param) [][]float64 {
	out := make([][]float64, len(params))
	for i, p := range params {
		out[i] = append([]float64(nil), p.W.Data...)
	}
	return out
}
