//go:build !race

package aitax_test

// raceEnabled reports whether the test binary was built with -race.
const raceEnabled = false
