//go:build !race

package msg

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
