//go:build !race

package advisor

// raceEnabled mirrors the race build tag so allocation-count gates can
// skip under the detector: it makes sync.Pool drop items at random, so a
// pooled buffer's steady state is not steady there.
const raceEnabled = false
