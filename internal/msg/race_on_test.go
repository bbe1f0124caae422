//go:build race

package msg

// raceEnabled reports whether the race detector instruments this build;
// pooled allocation-count assertions are skipped under it (it makes
// sync.Pool drop objects at random, so a pool miss allocates).
const raceEnabled = true
