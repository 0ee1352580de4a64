//go:build !race

package tensor

// raceEnabled mirrors the race build tag so allocation-count checks can
// skip under the detector: it makes sync.Pool drop items at random, so a
// pooled buffer's steady state is not steady there.
const raceEnabled = false
