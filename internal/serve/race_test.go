//go:build race

package serve

// raceEnabled reports a -race build, whose instrumentation allocates, so
// allocation counts mean nothing there.
const raceEnabled = true
