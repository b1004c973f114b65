//go:build race

package optimus

func init() { raceEnabled = true }
