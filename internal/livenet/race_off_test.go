//go:build !race

package livenet

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
