//go:build race

package core

// raceEnabled: the race detector makes sync.Pool drop a quarter of its Puts,
// so allocation counts that depend on a pooled workspace are not stable.
const raceEnabled = true
