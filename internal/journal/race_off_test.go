//go:build !race

package journal

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under it.
const raceEnabled = false
