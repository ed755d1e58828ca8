//go:build race

package tcpnet

// raceEnabled reports that the race detector is active: its instrumentation
// allocates on channel and synchronization operations, so the
// zero-allocation assertions are skipped (they run in the non-race CI lane).
const raceEnabled = true
