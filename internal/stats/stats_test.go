package stats

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
	"time"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanStdDev(t *testing.T) {
	s := FromFloats([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almost(s.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if !almost(s.StdDev(), 2, 1e-12) {
		t.Fatalf("stddev = %v, want 2", s.StdDev())
	}
	if !almost(s.CV(), 0.4, 1e-12) {
		t.Fatalf("cv = %v, want 0.4", s.CV())
	}
}

func TestEmptySampleIsZero(t *testing.T) {
	s := NewSample()
	if s.Mean() != 0 || s.StdDev() != 0 || s.Median() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty sample statistics must all be zero")
	}
	if s.Summarize().N != 0 {
		t.Fatal("empty summary N must be zero")
	}
}

func TestPercentiles(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if !almost(s.Median(), 50.5, 1e-9) {
		t.Fatalf("median = %v, want 50.5", s.Median())
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 100 {
		t.Fatalf("extreme percentiles wrong: %v %v", s.Percentile(0), s.Percentile(100))
	}
	if p := s.Percentile(25); !almost(p, 25.75, 1e-9) {
		t.Fatalf("p25 = %v, want 25.75", p)
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample()
		any := false
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				s.Add(x)
				any = true
			}
		}
		if !any {
			return true
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := s.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxBound(t *testing.T) {
	f := func(raw []float64) bool {
		s := NewSample()
		for _, x := range raw {
			if !math.IsNaN(x) && math.Abs(x) < 1e12 {
				s.Add(x)
			}
		}
		if s.N() == 0 {
			return true
		}
		mean := s.Mean()
		return s.Min() <= mean+1e-9 && mean <= s.Max()+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxDeviationFromMedian(t *testing.T) {
	s := FromFloats([]float64{10, 10, 10, 13})
	// median 10, worst |13-10|/10 = 0.3
	if !almost(s.MaxDeviationFromMedian(), 0.3, 1e-9) {
		t.Fatalf("maxdev = %v, want 0.3", s.MaxDeviationFromMedian())
	}
}

func TestFromDurations(t *testing.T) {
	s := FromDurations([]time.Duration{10 * time.Millisecond, 20 * time.Millisecond})
	if !almost(s.Mean(), 15, 1e-9) {
		t.Fatalf("mean = %v ms, want 15", s.Mean())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram(NewBounds([]float64{2, 4, 6, 8, 10}))
	for _, x := range []float64{0, 1, 2, 2.5, 5, 9.9, -1, 10, 11} {
		h.Observe(x)
	}
	if h.Count() != 9 {
		t.Fatalf("count = %d, want 9", h.Count())
	}
	// Upper-inclusive buckets: -1, 0, 1, 2 land in (-Inf, 2]; 10 in
	// (8, 10]; 11 overflows into +Inf.
	want := []int64{4, 1, 1, 0, 2, 1}
	for i, c := range h.Counts() {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", h.Counts(), want)
		}
	}
	if h.Min() != -1 || h.Max() != 11 {
		t.Fatalf("min/max = %g/%g, want -1/11", h.Min(), h.Max())
	}
	if q := h.Quantile(1); q != 11 {
		t.Fatalf("q1 = %g, want the observed max", q)
	}
}

// TestSummaryMatchesQuantile: Summary's one bucket walk gives the three
// Quantile calls' percentiles bit for bit, on random histograms (several
// ranks often share a bucket), an empty one and single-bucket ones.
func TestSummaryMatchesQuantile(t *testing.T) {
	bounds := NewBounds([]float64{0.5, 1, 2, 4, 8, 16, 32, 64})
	var hs []*Histogram
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		h := NewHistogram(bounds)
		sigma := 0.1 + 2*rng.Float64()
		for n := rng.IntN(400); n >= 0; n-- {
			h.Observe(math.Exp(rng.NormFloat64()*sigma + 1.5))
		}
		hs = append(hs, h)
	}
	hs = append(hs, NewHistogram(bounds))
	one := NewHistogram(bounds)
	for _, v := range []float64{2.5, 3, 3.5, 4} {
		one.Observe(v)
	}
	overflow := NewHistogram(NewBounds(nil))
	overflow.Observe(7)
	overflow.Observe(-3)
	hs = append(hs, one, overflow)
	for i, h := range hs {
		s := h.Summary()
		for _, c := range []struct {
			q   float64
			got float64
		}{{0.50, s.P50}, {0.90, s.P90}, {0.99, s.P99}} {
			if want := h.Quantile(c.q); math.Float64bits(c.got) != math.Float64bits(want) {
				t.Errorf("histogram %d (counts %v): summary p%g = %v, Quantile = %v", i, h.Counts(), 100*c.q, c.got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { hs[0].Summary() }); n != 0 {
		t.Errorf("Summary allocates %v times", n)
	}
}

func TestHistogramOfCoversAll(t *testing.T) {
	s := FromFloats([]float64{1, 2, 3, 4, 5})
	h := HistogramOf(s, 4)
	if len(h.Counts()) != 4+1 {
		t.Fatalf("counts = %v, want 4 equal-width buckets plus overflow", h.Counts())
	}
	var binned int64
	for _, c := range h.Counts()[:4] {
		binned += c
	}
	if binned != 5 || h.Counts()[4] != 0 {
		t.Fatalf("histogram lost observations: counts %v", h.Counts())
	}
	got := h.Render(4)
	want := "      1.00 | #### 2\n" +
		"      2.00 | ##   1\n" +
		"      3.00 | ##   1\n" +
		"      4.00 | ##   1\n"
	if got != want {
		t.Fatalf("render:\n%s\nwant:\n%s", got, want)
	}
}

func TestRenderShowsNonEmptyOverflow(t *testing.T) {
	h := NewHistogram(NewBounds([]float64{1}))
	h.Observe(0.5)
	h.Observe(3)
	if got, want := h.Render(2), "      0.50 | ## 1\n      1.00 | ## 1\n"; got != want {
		t.Fatalf("render = %q, want %q", got, want)
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.1, 1}, {0.11, 2}, {0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10},
	} {
		if got := NearestRank(xs, tc.q); got != tc.want {
			t.Errorf("NearestRank(q=%g) = %g, want %g", tc.q, got, tc.want)
		}
	}
	if got := NearestRank([]time.Duration(nil), 0.5); got != 0 {
		t.Fatalf("empty = %v, want 0", got)
	}
	// ceil(q·n) picks the same index as the q·n+0.9999999 formula the
	// serving and brownout goldens were recorded with, at every
	// reported quantile.
	for n := 1; n <= 5000; n++ {
		for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999} {
			legacy := int64(float64(n)*q+0.9999999) - 1
			legacy = min(max(legacy, 0), int64(n)-1)
			if got := rank(q, int64(n)) - 1; got != legacy {
				t.Fatalf("n=%d q=%g: index %d, legacy %d", n, q, got, legacy)
			}
		}
	}
}

func TestMeanDuration(t *testing.T) {
	if MeanDuration(nil) != 0 {
		t.Fatal("empty mean duration must be 0")
	}
	ds := []time.Duration{time.Millisecond, 3 * time.Millisecond}
	if MeanDuration(ds) != 2*time.Millisecond {
		t.Fatalf("mean = %v, want 2ms", MeanDuration(ds))
	}
}

func TestSummaryString(t *testing.T) {
	s := FromFloats([]float64{1, 2, 3})
	if s.Summarize().String() == "" {
		t.Fatal("summary string empty")
	}
}

func TestIQR(t *testing.T) {
	s := NewSample()
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if iqr := s.IQR(); !almost(iqr, 49.5, 1e-9) {
		t.Fatalf("iqr = %v, want 49.5", iqr)
	}
}

func TestLinRegPerfectLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x + 1
	f := LinReg(xs, ys)
	if !almost(f.Slope, 2, 1e-9) || !almost(f.Intercept, 1, 1e-9) || !almost(f.R2, 1, 1e-9) {
		t.Fatalf("fit = %+v", f)
	}
}

func TestLinRegNoisy(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{0, 1.2, 1.8, 3.1}
	f := LinReg(xs, ys)
	if f.Slope < 0.8 || f.Slope > 1.2 {
		t.Fatalf("slope = %v", f.Slope)
	}
	if f.R2 < 0.9 {
		t.Fatalf("r2 = %v", f.R2)
	}
}

func TestLinRegDegenerate(t *testing.T) {
	if f := LinReg(nil, nil); f.Slope != 0 {
		t.Fatal("empty fit must be zero")
	}
	// Vertical data (all same x) must not divide by zero.
	f := LinReg([]float64{2, 2, 2}, []float64{1, 2, 3})
	if f.Slope != 0 {
		t.Fatalf("vertical fit slope = %v", f.Slope)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	LinReg([]float64{1}, []float64{1, 2})
}
