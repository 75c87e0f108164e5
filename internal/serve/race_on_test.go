//go:build race

package serve

// raceEnabled: the race detector makes sync.Pool drop a quarter of its Puts,
// so counts that depend on a pooled frame are not stable.
const raceEnabled = true
