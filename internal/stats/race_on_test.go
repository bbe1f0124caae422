//go:build race

package stats

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (the instrumentation
// itself allocates, making AllocsPerRun nondeterministic).
const raceEnabled = true
