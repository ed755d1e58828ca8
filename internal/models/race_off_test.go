//go:build !race

package models_test

// raceEnabled: see race_on_test.go.
const raceEnabled = false
