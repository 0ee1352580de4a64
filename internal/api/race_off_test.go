//go:build !race

package api

// raceEnabled mirrors the race build tag so allocation-count gates can
// skip under the detector, which adds allocations of its own.
const raceEnabled = false
