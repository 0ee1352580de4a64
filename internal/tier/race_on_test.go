//go:build race

package tier

// raceEnabled mirrors the race build tag (see race_off_test.go).
const raceEnabled = true
