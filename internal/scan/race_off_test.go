//go:build !race

package scan

// raceEnabled mirrors the race build tag so allocation-count gates can
// skip under the detector, which adds allocations of its own.
const raceEnabled = false
