//go:build !race

package stats

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
