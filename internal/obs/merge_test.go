package obs

import (
	"sync"
	"testing"
)

// TestMergeEmptyIntoPopulated and its inverse: merging across the empty
// boundary must neither corrupt extremes (the empty side's zero min/max
// must not leak) nor change counts.
func TestMergeEmptyIntoPopulated(t *testing.T) {
	pop := NewHistogram(DefaultBounds)
	for _, v := range []float64{5, 7, 11} {
		pop.Observe(v)
	}
	empty := NewHistogram(DefaultBounds)

	// populated.Merge(empty) is a no-op.
	pop.Merge(empty)
	if pop.Count() != 3 || pop.Min() != 5 || pop.Max() != 11 || pop.Sum() != 23 {
		t.Fatalf("merge(empty) disturbed state: %+v", pop.Summary())
	}

	// empty.Merge(populated) adopts the populated side exactly,
	// including extremes (min must become 5, not stay at the empty 0).
	empty.Merge(pop)
	if empty.Count() != 3 || empty.Min() != 5 || empty.Max() != 11 || empty.Sum() != 23 {
		t.Fatalf("empty.Merge(populated) wrong: %+v", empty.Summary())
	}
	// Quantiles of the merged copy match the original.
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if empty.Quantile(q) != pop.Quantile(q) {
			t.Fatalf("q%.2f diverged: %g vs %g", q, empty.Quantile(q), pop.Quantile(q))
		}
	}

	// empty.Merge(empty) stays empty.
	e2 := NewHistogram(DefaultBounds)
	e2.Merge(NewHistogram(DefaultBounds))
	if e2.Count() != 0 || e2.Min() != 0 || e2.Max() != 0 {
		t.Fatalf("empty+empty = %+v", e2.Summary())
	}
	// Merging nil is a no-op.
	pop.Merge(nil)
	if pop.Count() != 3 {
		t.Fatal("merge(nil) disturbed state")
	}
}

// TestMergeCompatibleWindows: two histograms recorded over different
// (mismatched) windows of the same series — disjoint value ranges,
// separately allocated but value-equal bounds slices — merge exactly.
func TestMergeCompatibleWindows(t *testing.T) {
	boundsA := []float64{1, 2, 4, 8, 16}
	boundsB := []float64{1, 2, 4, 8, 16} // equal values, different array
	a, b := NewHistogram(boundsA), NewHistogram(boundsB)
	for i := 0; i < 100; i++ {
		a.Observe(float64(i%4) + 1) // window 1: 1..4
	}
	for i := 0; i < 50; i++ {
		b.Observe(float64(i%8) + 9) // window 2: 9..16
	}
	a.Merge(b)
	if a.Count() != 150 {
		t.Fatalf("count %d, want 150", a.Count())
	}
	if a.Min() != 1 || a.Max() != 16 {
		t.Fatalf("extremes [%g, %g], want [1, 16]", a.Min(), a.Max())
	}
	// Integer-valued observations make float sums exact.
	wantSum := 0.0
	for i := 0; i < 100; i++ {
		wantSum += float64(i%4) + 1
	}
	for i := 0; i < 50; i++ {
		wantSum += float64(i%8) + 9
	}
	if a.Sum() != wantSum {
		t.Fatalf("sum %g, want %g", a.Sum(), wantSum)
	}
}

// TestMergeIncompatibleBoundsPanics: silent miscounting is the failure
// mode being guarded — both a length mismatch and a same-length value
// mismatch must panic.
func TestMergeIncompatibleBoundsPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("length mismatch", func() {
		a, b := NewHistogram([]float64{1, 2}), NewHistogram([]float64{1, 2, 3})
		b.Observe(1)
		a.Merge(b)
	})
	mustPanic("value mismatch", func() {
		a, b := NewHistogram([]float64{1, 2, 4}), NewHistogram([]float64{1, 2, 5})
		b.Observe(1)
		a.Merge(b)
	})
}

// TestNWayMergeExact: N goroutines each fold their own slice of an
// integer-valued stream into a private histogram (run under -race by
// make test); merging the N histograms in a fixed order must reproduce
// the sequential single-histogram count, sum, min and max exactly, and
// byte-for-byte identical bucket quantiles.
func TestNWayMergeExact(t *testing.T) {
	const (
		workers = 8
		perW    = 10_000
	)
	value := func(w, i int) float64 {
		return float64((w*perW+i)%977) + 1 // integers: float sums are exact
	}

	seq := NewHistogram(DefaultBounds)
	for w := 0; w < workers; w++ {
		for i := 0; i < perW; i++ {
			seq.Observe(value(w, i))
		}
	}

	parts := make([]*Histogram, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		parts[w] = NewHistogram(DefaultBounds)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				parts[w].Observe(value(w, i))
			}
		}()
	}
	wg.Wait()

	merged := NewHistogram(DefaultBounds)
	for _, p := range parts {
		merged.Merge(p)
	}
	if merged.Count() != seq.Count() {
		t.Fatalf("count %d, want %d", merged.Count(), seq.Count())
	}
	if merged.Sum() != seq.Sum() {
		t.Fatalf("sum %g, want %g (integer stream must merge exactly)", merged.Sum(), seq.Sum())
	}
	if merged.Min() != seq.Min() || merged.Max() != seq.Max() {
		t.Fatalf("extremes [%g, %g], want [%g, %g]", merged.Min(), merged.Max(), seq.Min(), seq.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if merged.Quantile(q) != seq.Quantile(q) {
			t.Fatalf("q%g %g, want %g", q, merged.Quantile(q), seq.Quantile(q))
		}
	}
	// Merge order must not matter for any of the above: reverse order.
	rev := NewHistogram(DefaultBounds)
	for i := len(parts) - 1; i >= 0; i-- {
		rev.Merge(parts[i])
	}
	if rev.Count() != seq.Count() || rev.Sum() != seq.Sum() ||
		rev.Min() != seq.Min() || rev.Max() != seq.Max() {
		t.Fatal("reverse-order merge diverged on an integer stream")
	}
}
