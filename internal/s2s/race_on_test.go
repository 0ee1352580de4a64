//go:build race

package s2s

// raceEnabled mirrors the race build tag (see race_off_test.go).
const raceEnabled = true
