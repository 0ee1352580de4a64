//go:build race

package dep_test

// raceEnabled mirrors the race build tag (see race_off_test.go).
const raceEnabled = true
