//go:build race

package itag_test

func init() { raceEnabled = true }
