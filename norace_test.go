//go:build !race

package fairindex

const raceEnabled = false
