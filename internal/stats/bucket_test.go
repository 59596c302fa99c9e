package stats_test

import (
	"math"
	"sort"
	"testing"

	"aitax/internal/fleet"
	"aitax/internal/obs"
	"aitax/internal/stats"
	"aitax/internal/telemetry"
)

// searchBucket is the binary search the bucket table replaced: the
// first bound >= v, len(vals) (overflow) when none is or v is NaN.
func searchBucket(vals []float64, v float64) int {
	return sort.Search(len(vals), func(i int) bool { return v <= vals[i] })
}

// equalWidth builds bounds the way HistogramOf does for a sample
// spanning [lo, hi].
func equalWidth(lo, hi float64, bins int) []float64 {
	width := (hi*1.0000001 - lo) / float64(bins)
	out := make([]float64, bins)
	for i := range out {
		out[i] = lo + float64(i+1)*width
	}
	return out
}

// bucketSets are the production bound sets plus sets that reach every
// path of the lookup: bounds at or below zero (the binary search),
// several bounds to one 1/16-octave cell, subnormal, huge and infinite
// bounds, and none at all.
func bucketSets() map[string]*stats.Bounds {
	return map[string]*stats.Bounds{
		"obs.DefaultBounds":        obs.DefaultBounds,
		"fleet.ShareBounds":        fleet.ShareBounds,
		"telemetry.DefaultBuckets": telemetry.DefaultBuckets,
		"histogramOf 1..5":         stats.NewBounds(equalWidth(1, 5, 12)),
		"histogramOf 0..40":        stats.NewBounds(equalWidth(0, 40, 12)),
		"histogramOf -3..9":        stats.NewBounds(equalWidth(-3, 9, 12)),
		"zero first":               stats.NewBounds([]float64{0, 1, 2}),
		"all negative":             stats.NewBounds([]float64{-8, -4, -0.5}),
		"crowded":                  stats.NewBounds([]float64{1, 1.01, 1.02, 1.03, 1.5, 2, 2.001}),
		"subnormal":                stats.NewBounds([]float64{math.SmallestNonzeroFloat64, 1e-310, 1e-300, 1}),
		"huge":                     stats.NewBounds([]float64{1e300, math.MaxFloat64}),
		"infinite last":            stats.NewBounds([]float64{0.5, 3, math.Inf(1)}),
		"single":                   stats.NewBounds([]float64{7}),
		"empty":                    stats.NewBounds(nil),
	}
}

// bucketInputs lists the values each set is checked at: every bound and
// its float neighbours, the lower edge of every 1/16-octave cell the
// bounds span (and one cell either side) with its lower neighbour, and
// the special values.
func bucketInputs(vals []float64) []float64 {
	in := []float64{
		0, math.Copysign(0, -1), -1, -1e-300, -math.MaxFloat64,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0000000000001), // NaN in +Inf's cell
		math.Float64frombits(0xfff8000000000000), // negative NaN
	}
	for _, b := range vals {
		in = append(in, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)), -b)
	}
	if len(vals) > 0 && vals[0] > 0 {
		lo := max(math.Float64bits(vals[0])>>48, 1) - 1
		hi := min(math.Float64bits(vals[len(vals)-1])>>48+1, 0x7ff0)
		for c := lo; c <= hi; c++ {
			edge := math.Float64frombits(c << 48)
			in = append(in, edge, math.Nextafter(edge, 0))
		}
	}
	return in
}

// TestBucketMatchesBinarySearch: the table lookup puts every input in
// exactly the bucket the binary search does, for every bound set.
func TestBucketMatchesBinarySearch(t *testing.T) {
	for name, b := range bucketSets() {
		vals := b.Values()
		for _, v := range bucketInputs(vals) {
			if got, want := b.Bucket(v), searchBucket(vals, v); got != want {
				t.Errorf("%s: bucket(%v = %#x) = %d, binary search %d",
					name, v, math.Float64bits(v), got, want)
			}
		}
	}
}

// FuzzHistogramBucket checks arbitrary values against the binary search
// on every bound set.
func FuzzHistogramBucket(f *testing.F) {
	for _, v := range []float64{0, 0.25, 1, 1.5, 99.99, 100, 1e5, -3, math.Inf(1), math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	sets := bucketSets()
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		for name, b := range sets {
			if got, want := b.Bucket(v), searchBucket(b.Values(), v); got != want {
				t.Fatalf("%s: bucket(%v = %#x) = %d, binary search %d", name, v, bits, got, want)
			}
		}
	})
}
