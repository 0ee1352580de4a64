//go:build race

package serve

// raceEnabled mirrors the race build tag (see race_off_test.go).
const raceEnabled = true
