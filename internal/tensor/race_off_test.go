//go:build !race

package tensor

// raceEnabled: see race_on_test.go.
const raceEnabled = false
