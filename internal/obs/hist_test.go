package obs

import (
	"math"
	"testing"
)

func TestHistogramQuantileNearExact(t *testing.T) {
	h := NewHistogram(DefaultBounds)
	for i := 0; i < 10000; i++ {
		h.Observe(float64(i) / 10) // uniform 0..999.9 ms
	}
	if h.Count() != 10000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, tc := range []struct{ q, exact float64 }{
		{0.50, 500}, {0.90, 900}, {0.99, 990},
	} {
		got := h.Quantile(tc.q)
		// The 1-1.5-2.5-4-6 ladder gives ~±1 bucket accuracy; at these
		// magnitudes one bucket is at most 400 ms wide.
		if math.Abs(got-tc.exact) > 110 {
			t.Errorf("q%.2f = %.1f, exact %.1f: off by more than a bucket", tc.q, got, tc.exact)
		}
		if got < h.Min() || got > h.Max() {
			t.Errorf("q%.2f = %.1f escapes [%g,%g]", tc.q, got, h.Min(), h.Max())
		}
	}
}

func TestHistogramMergeOrderInvariant(t *testing.T) {
	mk := func(vals ...float64) *Histogram {
		h := NewHistogram(DefaultBounds)
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	a := mk(1, 2, 3, 100, 200)
	b := mk(0.5, 50, 5000)
	c := mk(7)

	ab := NewHistogram(DefaultBounds)
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)
	ba := NewHistogram(DefaultBounds)
	ba.Merge(c)
	ba.Merge(b)
	ba.Merge(a)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if ab.Quantile(q) != ba.Quantile(q) {
			t.Fatalf("q%g differs by merge order: %g vs %g", q, ab.Quantile(q), ba.Quantile(q))
		}
	}
	if ab.Count() != 9 || ab.Sum() != ba.Sum() || ab.Min() != 0.5 || ab.Max() != 5000 {
		t.Fatalf("merged stats wrong: count %d sum %g min %g max %g", ab.Count(), ab.Sum(), ab.Min(), ab.Max())
	}
}

func TestHistogramResetKeepsStorage(t *testing.T) {
	h := NewHistogram(DefaultBounds)
	h.Observe(42)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("reset did not empty the histogram")
	}
	allocs := testing.AllocsPerRun(100, func() {
		h.Observe(13)
		h.Reset()
	})
	if allocs != 0 {
		t.Fatalf("observe+reset allocates %v/op; ring reuse depends on 0", allocs)
	}
}

func TestHistogramMismatchedBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merge with mismatched bounds did not panic")
		}
	}()
	a := NewHistogram([]float64{1, 2, 3})
	b := NewHistogram([]float64{1, 2})
	b.Observe(1)
	a.Merge(b)
}

func TestSparkline(t *testing.T) {
	// Indices scale to the max: 0→▁, 1→▁ (1/8·7=0.875), 2→▂, 4→▄, 8→█.
	if got := Sparkline([]float64{0, 1, 2, 4, 8}); got != "▁▁▂▄█" {
		t.Fatalf("sparkline = %q", got)
	}
	if got := Sparkline([]float64{0, 0, 0}); got != "▁▁▁" {
		t.Fatalf("all-zero sparkline = %q", got)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(DefaultBounds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}
