//go:build race

package webobj_test

func init() { raceEnabled = true }
