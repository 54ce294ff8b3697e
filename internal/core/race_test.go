//go:build race

package core

// raceEnabled reports a -race build, whose sync.Pool drops a share of Puts
// on purpose and whose instrumentation allocates, so allocation counts mean
// nothing there.
const raceEnabled = true
