//go:build !race

package serve

// raceEnabled mirrors the race build tag so allocation-count gates can
// skip under the detector, which adds allocations of its own.
const raceEnabled = false
