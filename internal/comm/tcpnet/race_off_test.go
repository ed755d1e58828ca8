//go:build !race

package tcpnet

// raceEnabled: see race_on_test.go.
const raceEnabled = false
