package stats

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
)

// rank is the 1-based nearest-rank position of the q-quantile among n
// ordered observations: ceil(q·n), clamped to [1, n].
func rank(q float64, n int64) int64 {
	r := int64(math.Ceil(q * float64(n)))
	return min(max(r, 1), n)
}

// NearestRank returns the exact nearest-rank q-quantile (q in [0,1]) of
// an ascending slice: the smallest element with at least q·n elements at
// or below it. Zero for an empty slice. Every exact percentile in the
// serving reports, the validate gates and the exact-mode telemetry
// registry goes through this one rule, so they agree to the bit.
func NearestRank[T cmp.Ordered](sorted []T, q float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[rank(q, int64(len(sorted)))-1]
}

// Histogram is a fixed-bucket, bounded-memory histogram: counts per
// bucket plus count/sum/min/max. A value lands in the first bucket
// whose upper bound is >= the value (upper-inclusive); values above the
// last bound land in a final +Inf overflow bucket. Two histograms with
// the same bounds merge exactly (counts add), and quantiles are
// deterministic linear interpolations inside the bucket holding the
// requested rank — the streaming, mergeable counterpart of Sample, as
// RegAccum is of LinReg.
type Histogram struct {
	bounds *Bounds
	counts []int64 // len(bounds)+1; last is the +Inf overflow bucket
	count  int64
	sum    float64
	min    float64
	max    float64
}

// cellShift cuts a float64's bits down to its sign, exponent and top 4
// mantissa bits: cell c = Float64bits(v)>>cellShift spans a 1/16 octave.
const cellShift = 52 - 4

// Bounds is a strictly increasing set of histogram bucket upper bounds
// plus the table that buckets a value in O(1). Build it once per bound
// set with NewBounds and share it: every histogram over one *Bounds
// reuses the table, and merges between them skip the value scan.
//
// The table covers the 1/16-octave cells from bounds[0]'s to the last
// bound's, and holds for each cell the bucket of its lower edge. For
// v >= 0, Float64bits is monotone in v, so v's bucket is at or after its
// cell's entry: bucket advances while v > bounds[i], which takes at most
// one step unless two bounds share a cell. A value outside the covered
// cells is below bounds[0] (bucket 0), above the last bound (overflow),
// negative (bucket 0) or NaN (overflow). Every float64 lands where a
// binary search for the first bound >= v puts it.
type Bounds struct {
	vals  []float64
	first uint64
	cells []cell
	// crowded records whether some cell holds two or more bounds, so
	// that one step past the cell's bound may not be enough.
	crowded bool
}

// cell is one table entry: the bucket of the cell's lower edge and the
// bits of that bucket's bound.
type cell struct {
	bound  uint64
	bucket int
}

// NewBounds validates and copies vals, which must be strictly
// increasing, and builds their bucket table.
func NewBounds(vals []float64) *Bounds {
	for i, v := range vals {
		if math.IsNaN(v) {
			panic(fmt.Sprintf("stats: bound %d is NaN", i))
		}
		if i > 0 && v <= vals[i-1] {
			panic(fmt.Sprintf("stats: bounds not increasing at %d: %g <= %g", i, v, vals[i-1]))
		}
	}
	b := &Bounds{vals: slices.Clone(vals)}
	// Bounds at or below zero leave the table nothing monotone to index
	// (negative floats' bits run backwards, and zero and below straddle
	// the sign bit), so they keep the binary search. HistogramOf builds
	// such bounds for samples reaching zero or below.
	if len(vals) == 0 || vals[0] <= 0 {
		return b
	}
	b.first = math.Float64bits(vals[0]) >> cellShift
	last := math.Float64bits(vals[len(vals)-1]) >> cellShift
	b.cells = make([]cell, last-b.first+1)
	i := 0
	for c := range b.cells {
		edge := math.Float64frombits((b.first + uint64(c)) << cellShift)
		for vals[i] < edge {
			i++
		}
		b.cells[c] = cell{bound: math.Float64bits(vals[i]), bucket: i}
	}
	for i := 1; i < len(vals); i++ {
		if math.Float64bits(vals[i])>>cellShift == math.Float64bits(vals[i-1])>>cellShift {
			b.crowded = true
		}
	}
	return b
}

// Values returns the bucket upper bounds (shared; do not modify).
func (b *Bounds) Values() []float64 { return b.vals }

// bucket returns the index of the bucket v lands in: the first bound
// >= v, or len(vals) (the overflow bucket) when none is.
func (b *Bounds) bucket(v float64) int {
	bits := math.Float64bits(v)
	if c := bits>>cellShift - b.first; c < uint64(len(b.cells)) {
		// v and the cell's bound are non-negative here, so their bits
		// order as their values do and the first step is the sign bit of
		// the difference: whether v passes the bound is data, and a
		// branch on it would mispredict. (A NaN reaches the table only in
		// +Inf's cell, whose bits it exceeds, so it steps to overflow.)
		e := b.cells[c]
		i := e.bucket + int((e.bound-bits)>>63)
		if b.crowded {
			for i < len(b.vals) && v > b.vals[i] {
				i++
			}
		}
		return i
	}
	switch {
	case b.cells == nil:
		return b.search(v)
	case v <= b.vals[0]:
		return 0
	default:
		return len(b.vals)
	}
}

// search is bucket by binary search, for bounds the table cannot index.
func (b *Bounds) search(v float64) int {
	lo, hi := 0, len(b.vals)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= b.vals[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// NewHistogram returns an empty histogram over b.
func NewHistogram(b *Bounds) *Histogram {
	return &Histogram{bounds: b, counts: make([]int64, len(b.vals)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[h.bounds.bucket(v)]++
}

// Counts returns the per-bucket counts, one per bound plus the +Inf
// overflow bucket last (shared; do not modify).
func (h *Histogram) Counts() []int64 { return h.counts }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the observation sum.
func (h *Histogram) Sum() float64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Mean returns the observation mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the bucket holding the nearest-rank observation,
// clamped to the observed [min, max] range; 0 when empty. A pure
// function of the bucket counts and extremes, so any merge order of the
// same histograms reports the same percentiles.
func (h *Histogram) Quantile(q float64) float64 {
	var v [1]float64
	h.quantiles([]float64{q}, v[:])
	return v[0]
}

// quantiles sets vs[j] to Quantile(qs[j]) for ascending qs, in one walk
// over the buckets. Every rank is at most the count, so the walk reaches
// each one.
func (h *Histogram) quantiles(qs, vs []float64) {
	if h.count == 0 {
		clear(vs)
		return
	}
	j := 0
	r := rank(qs[0], h.count)
	var cum int64
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		cum += n
		if cum < r {
			continue
		}
		lo := h.min
		if i > 0 && h.bounds.vals[i-1] > lo {
			lo = h.bounds.vals[i-1]
		}
		hi := h.max
		if i < len(h.bounds.vals) && h.bounds.vals[i] < hi {
			hi = h.bounds.vals[i]
		}
		if hi < lo {
			hi = lo
		}
		for cum >= r {
			// Position of the rank within this bucket's occupants.
			frac := float64(r-(cum-n)) / float64(n)
			vs[j] = lo + (hi-lo)*frac
			if j++; j == len(qs) {
				return
			}
			r = rank(qs[j], h.count)
		}
	}
}

// Merge folds other into h. Both histograms must share bounds; merging
// histograms whose bounds differ — in length or in any value — panics
// rather than silently producing a miscounted distribution.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.count == 0 {
		return
	}
	// Histograms over one *Bounds (the common case) need no value scan.
	if h.bounds != other.bounds && !slices.Equal(h.bounds.vals, other.bounds.vals) {
		panic("stats: merging histograms with different bounds")
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if h.count == 0 || other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// Reset empties the histogram in place, keeping its bucket storage, so
// reusing a histogram does not allocate.
func (h *Histogram) Reset() {
	h.count = 0
	h.sum = 0
	h.min = 0
	h.max = 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Summary condenses the histogram for export rows; its percentiles are
// Quantile's, from one walk over the buckets.
func (h *Histogram) Summary() HistSummary {
	var p [3]float64
	h.quantiles([]float64{0.50, 0.90, 0.99}, p[:])
	return HistSummary{
		Count: h.count,
		Sum:   h.sum,
		Min:   h.Min(),
		Max:   h.Max(),
		P50:   p[0],
		P90:   p[1],
		P99:   p[2],
	}
}

// HistSummary is the JSON-exported shape of one histogram.
type HistSummary struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// HistogramOf bins all of a sample's observations into bins equal-width
// buckets spanning its [min, max] range (the top bound sits just above
// max, so nothing overflows) — the distribution view of paper Figs.
// 9–11.
func HistogramOf(s *Sample, bins int) *Histogram {
	lo, hi := s.Min(), s.Max()
	if hi <= lo {
		hi = lo + 1
	}
	width := (hi*1.0000001 - lo) / float64(bins)
	bounds := make([]float64, bins)
	for i := range bounds {
		bounds[i] = lo + float64(i+1)*width
	}
	h := NewHistogram(NewBounds(bounds))
	for _, x := range s.xs {
		h.Observe(x)
	}
	return h
}

// Render draws the histogram as ASCII rows, one per bucket labelled
// with its lower edge (the observed minimum for the first), with bars
// scaled to width characters. The +Inf overflow row appears only when
// it holds observations.
func (h *Histogram) Render(width int) string {
	rows := h.counts
	if rows[len(h.bounds.vals)] == 0 {
		rows = rows[:len(h.bounds.vals)]
	}
	peak := int64(1)
	for _, c := range rows {
		peak = max(peak, c)
	}
	var b strings.Builder
	for i, c := range rows {
		lo := h.Min()
		if i > 0 {
			lo = h.bounds.vals[i-1]
		}
		bar := strings.Repeat("#", int(c*int64(width)/peak))
		fmt.Fprintf(&b, "%10.2f | %-*s %d\n", lo, width, bar, c)
	}
	return b.String()
}
