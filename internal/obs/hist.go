// Package obs is the streaming observability layer: a windowed
// time-series recorder over mergeable stats histograms, SLO burn-rate
// monitoring, and a live text dashboard for the serving frontend.
//
// Everything in this package is deterministic given its inputs — no
// wall clocks, no sampling randomness — so the virtual-time simulator
// can drive it and golden-diff the result, while the HTTP frontend
// drives the identical code on wall-clock timestamps. Memory is flat by
// construction: histograms are fixed-bucket (no sample retention) and
// the recorder is a ring of windows, so a run of any length holds the
// same number of bytes.
package obs

import "aitax/internal/stats"

// DefaultBounds are the default histogram bucket upper bounds for
// latency-like series, in milliseconds: a 1-1.5-2.5-4-6 ladder per
// decade from 10 µs to 100 s. Finer than the telemetry registry's
// exposition buckets, because rolling percentiles are interpolated from
// these rather than computed from retained samples.
var DefaultBounds = func() []float64 {
	ladder := []float64{1, 1.5, 2.5, 4, 6}
	var out []float64
	for _, scale := range []float64{0.01, 0.1, 1, 10, 100, 1000, 10000} {
		for _, l := range ladder {
			out = append(out, l*scale)
		}
	}
	return append(out, 100000)
}()

// Histogram and NewHistogram name stats.Histogram for the host-time
// benchmark (hostbench/, a separate module built against this API);
// code in this module uses stats directly.
type Histogram = stats.Histogram

// NewHistogram returns an empty stats.Histogram over bounds.
func NewHistogram(bounds []float64) *Histogram { return stats.NewHistogram(bounds) }
