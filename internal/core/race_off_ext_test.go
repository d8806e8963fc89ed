//go:build !race

package core_test

// raceEnabled mirrors package core's flag for the external test package.
const raceEnabled = false
