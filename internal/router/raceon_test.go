//go:build race

package router

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// the buffers put back, so allocation pins do not hold under it.
const raceEnabled = true
