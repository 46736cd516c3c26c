//go:build race

package kvserver

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop items at random, so allocation counts are meaningless under it.
const raceEnabled = true
