//go:build race

package fairindex

// raceEnabled reports a -race build, where sync.Pool drops items at
// random, so pooled allocation counts do not hold.
const raceEnabled = true
