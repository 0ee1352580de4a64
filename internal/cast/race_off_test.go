//go:build !race

package cast_test

// raceEnabled mirrors the race build tag so allocation-count gates can
// skip under the detector: it makes sync.Pool drop items at random, so the
// printer's pooled buffer is not warm there.
const raceEnabled = false
