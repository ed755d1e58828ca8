//go:build race

package tensor

// raceEnabled reports that the race detector is active: it makes sync.Pool
// drop items at random and its instrumentation allocates, so the
// zero-allocation assertions are skipped (they run in the non-race CI lane).
const raceEnabled = true
