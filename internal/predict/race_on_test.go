//go:build race

package predict

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under it.
const raceEnabled = true
