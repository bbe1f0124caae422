//go:build race

package livenet

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (it makes sync.Pool
// drop objects at random, so a pool miss allocates).
const raceEnabled = true
