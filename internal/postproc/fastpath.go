package postproc

// Tiled fast paths for the heavy post-processing kernels. Two ideas,
// both output-preserving:
//
//  1. Dtype specialization. The generic kernels call tensor.At per
//     element — a dequantizing switch that dominates the DeepLab mask
//     flatten (5.5M calls per frame). For the common dtypes the argmax
//     can instead compare raw storage: float64(float32) is a monotone
//     injection (and NaN stays incomparable), int32 order is the
//     float64 order, and for quantized tensors real = scale*(q-zp) is
//     strictly increasing in q whenever scale > 0 — distinct bytes
//     can't collide after rounding because their real values differ by
//     at least scale, far above one ulp at this magnitude. Tensors
//     with scale <= 0 (or exotic dtypes) take the original At loop.
//
//  2. Row tiling on internal/par. Every task below writes only its own
//     slice of the output, so the static partition makes the result
//     byte-identical at any worker count.

import (
	"math"
	"sync"

	"aitax/internal/par"
	"aitax/internal/tensor"
)

// rawComparable are the element types whose native order equals the
// dequantized float64 order (given scale > 0 for the byte types).
type rawComparable interface {
	~int8 | ~uint8 | ~int32 | ~float32
}

// argmaxRows writes the per-row argmax of an n×c matrix into mask for
// rows [lo, hi), with the same strict-greater first-wins tie rule as
// the At-based loop.
func argmaxRows[E rawComparable](mask []int, s []E, c, lo, hi int) {
	for p := lo; p < hi; p++ {
		row := s[p*c:][:c]
		best, bestS := 0, row[0]
		for ch := 1; ch < c; ch++ {
			if row[ch] > bestS {
				best, bestS = ch, row[ch]
			}
		}
		mask[p] = best
	}
}

type maskTask struct {
	t    *tensor.Tensor
	c    int
	mask []int
}

var maskTaskPool par.Spare[maskTask]

func (mt *maskTask) Tile(lo, hi int) {
	t, c := mt.t, mt.c
	switch {
	case t.DType == tensor.Float32:
		argmaxRows(mt.mask, t.F32, c, lo, hi)
	case t.DType == tensor.Int32:
		argmaxRows(mt.mask, t.I32, c, lo, hi)
	case t.DType == tensor.UInt8 && t.Quant.Scale > 0:
		argmaxRows(mt.mask, t.U8, c, lo, hi)
	case t.DType == tensor.Int8 && t.Quant.Scale > 0:
		argmaxRows(mt.mask, t.I8, c, lo, hi)
	default:
		for p := lo; p < hi; p++ {
			base := p * c
			best, bestScore := 0, t.At(base)
			for ch := 1; ch < c; ch++ {
				if s := t.At(base + ch); s > bestScore {
					best, bestScore = ch, s
				}
			}
			mt.mask[p] = best
		}
	}
}

// ssdScratch holds the per-anchor argmax results of the parallel score
// scan, recycled across DecodeBoxesInto calls.
type ssdScratch struct {
	bestC []int32
	bestS []float64
}

var ssdScratchPool = sync.Pool{New: func() any { return new(ssdScratch) }}

func growInt32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n)
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n)
}

// bestClassRows scans anchors [lo, hi) of raw class scores, skipping
// background channel 0, replicating "s > bestS with bestS starting at
// 0.0" in the raw domain: the raw threshold init is the value that
// dequantizes to exactly 0.0 (the zero point; 0 for identity dtypes).
func bestClassRows[E rawComparable](bestC []int32, bestS []float64, s []E, c, lo, hi int, init E, deq func(E) float64) {
	for i := lo; i < hi; i++ {
		row := s[i*c:][:c]
		best, bestRaw := 0, init
		for ch := 1; ch < c; ch++ {
			if row[ch] > bestRaw {
				best, bestRaw = ch, row[ch]
			}
		}
		bestC[i] = int32(best)
		bestS[i] = deq(bestRaw)
	}
}

type boxScanTask struct {
	scores *tensor.Tensor
	c      int
	bestC  []int32
	bestS  []float64
}

var boxScanTaskPool par.Spare[boxScanTask]

func (bt *boxScanTask) Tile(lo, hi int) {
	t, c := bt.scores, bt.c
	q := t.Quant
	switch {
	case t.DType == tensor.Float32:
		bestClassRows(bt.bestC, bt.bestS, t.F32, c, lo, hi, 0,
			func(v float32) float64 { return float64(v) })
	case t.DType == tensor.Int32:
		bestClassRows(bt.bestC, bt.bestS, t.I32, c, lo, hi, 0,
			func(v int32) float64 { return float64(v) })
	case t.DType == tensor.UInt8 && q.Scale > 0 && q.ZeroPoint >= 0 && q.ZeroPoint <= 255:
		bestClassRows(bt.bestC, bt.bestS, t.U8, c, lo, hi, uint8(q.ZeroPoint),
			func(v uint8) float64 { return q.Dequantize(int(v)) })
	case t.DType == tensor.Int8 && q.Scale > 0 && q.ZeroPoint >= -128 && q.ZeroPoint <= 127:
		bestClassRows(bt.bestC, bt.bestS, t.I8, c, lo, hi, int8(q.ZeroPoint),
			func(v int8) float64 { return q.Dequantize(int(v)) })
	default:
		for i := lo; i < hi; i++ {
			best, bestScore := 0, 0.0
			for ch := 1; ch < c; ch++ {
				if s := t.At(i*c + ch); s > bestScore {
					best, bestScore = ch, s
				}
			}
			bt.bestC[i] = int32(best)
			bt.bestS[i] = bestScore
		}
	}
}

type kpTask struct {
	heatmaps, offsets *tensor.Tensor
	h, w, k, stride   int
	out               []Keypoint
}

var kpTaskPool par.Spare[kpTask]

func (t *kpTask) Tile(lo, hi int) {
	h, w, k := t.h, t.w, t.k
	hm := t.heatmaps
	for kp := lo; kp < hi; kp++ {
		bestY, bestX := 0, 0
		var bestScore float64
		switch {
		case hm.DType == tensor.Float32:
			bestScore = math.Inf(-1)
			idx := kp
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if s := float64(hm.F32[idx]); s > bestScore {
						bestY, bestX, bestScore = y, x, s
					}
					idx += k
				}
			}
		case hm.DType == tensor.UInt8 && hm.Quant.Scale > 0:
			// Raw bytes can't be NaN, so seeding from cell (0,0) is
			// equivalent to the -Inf init of the float path.
			bestRaw := hm.U8[kp]
			idx := kp
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if v := hm.U8[idx]; v > bestRaw {
						bestY, bestX, bestRaw = y, x, v
					}
					idx += k
				}
			}
			bestScore = hm.Quant.Dequantize(int(bestRaw))
		case hm.DType == tensor.Int8 && hm.Quant.Scale > 0:
			bestRaw := hm.I8[kp]
			idx := kp
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if v := hm.I8[idx]; v > bestRaw {
						bestY, bestX, bestRaw = y, x, v
					}
					idx += k
				}
			}
			bestScore = hm.Quant.Dequantize(int(bestRaw))
		default:
			bestScore = math.Inf(-1)
			for y := 0; y < h; y++ {
				for x := 0; x < w; x++ {
					if s := hm.At(((y*w)+x)*k + kp); s > bestScore {
						bestY, bestX, bestScore = y, x, s
					}
				}
			}
		}
		offBase := ((bestY * w) + bestX) * 2 * k
		offY := t.offsets.At(offBase + kp)
		offX := t.offsets.At(offBase + k + kp)
		t.out[kp] = Keypoint{
			Y:     float64(bestY*t.stride) + offY,
			X:     float64(bestX*t.stride) + offX,
			Score: sigmoid(bestScore),
		}
	}
}
