//go:build race

package repro

// raceEnabled reports a -race build, under which sync.Pool drops items
// at random, so pooled paths allocate.
const raceEnabled = true
