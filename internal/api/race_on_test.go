//go:build race

package api

// raceEnabled mirrors the race build tag (see race_off_test.go).
const raceEnabled = true
