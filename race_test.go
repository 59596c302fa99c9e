//go:build race

package aitax_test

// raceEnabled reports whether the test binary was built with -race.
// Race mode drops sync.Pool items at random, so allocation counts of
// pool-backed kernels are not deterministic there.
const raceEnabled = true
