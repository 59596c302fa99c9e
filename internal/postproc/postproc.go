// Package postproc implements the post-processing algorithms of the
// paper's Table I: topK label selection, dequantization of quantized
// outputs, logits/softmax computation, segmentation mask flattening
// (DeepLab), keypoint calculation (PoseNet), and bounding-box decoding
// with non-maximum suppression (SSD). All kernels are real; each has a
// matching Work estimator for the simulator.
package postproc

import (
	"math"
	"slices"
	"sort"

	"aitax/internal/par"
	"aitax/internal/tensor"
	"aitax/internal/work"
)

// Class is a classification result.
type Class struct {
	Index int
	Score float64
}

// TopK returns the k highest-scoring classes from a model output tensor,
// dequantizing on the fly for quantized outputs. The paper notes this is
// effectively an array slice after sorting by likelihood.
func TopK(t *tensor.Tensor, k int) []Class {
	n := t.Elems()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	all := make([]Class, n)
	for i := 0; i < n; i++ {
		all[i] = Class{Index: i, Score: t.At(i)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Score != all[b].Score {
			return all[a].Score > all[b].Score
		}
		return all[a].Index < all[b].Index
	})
	return all[:k]
}

// TopKInto is the allocation-free variant of TopK: it selects the k best
// classes into dst's storage (grown only if cap(dst) < k) with a single
// pass over the tensor. The ordering criterion is the same strict total
// order TopK sorts by — score descending, index ascending on ties — so
// for any input TopKInto(dst, t, k) equals TopK(t, k).
func TopKInto(dst []Class, t *tensor.Tensor, k int) []Class {
	n := t.Elems()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	if cap(dst) < k {
		dst = make([]Class, k)
	}
	dst = dst[:0]
	for i := 0; i < n; i++ {
		s := t.At(i)
		if len(dst) == k && s <= dst[k-1].Score {
			// Not better than the current k-th: with ties broken by the
			// lower index, a later equal score never displaces.
			continue
		}
		// Find the insertion point (score desc, index asc) and shift.
		pos := len(dst)
		for pos > 0 && dst[pos-1].Score < s {
			pos--
		}
		if len(dst) < k {
			dst = dst[:len(dst)+1]
		}
		copy(dst[pos+1:], dst[pos:])
		dst[pos] = Class{Index: i, Score: s}
	}
	return dst
}

// TopKWork reports the demand of topK over n classes.
func TopKWork(n, k int) work.Work {
	if n <= 1 {
		return work.Work{Ops: 1, Bytes: 8}
	}
	logN := int64(math.Log2(float64(n))) + 1
	return work.Work{Ops: int64(n) * logN, Bytes: int64(n) * 16}
}

// Dequantize converts a quantized output tensor to FP32; Table I marks
// this step for all quantized models.
func Dequantize(t *tensor.Tensor) *tensor.Tensor { return tensor.DequantizeTensor(t) }

// DequantizeInto is the scratch-reusing variant of Dequantize (dst may
// be nil; see tensor.DequantizeTensorInto).
func DequantizeInto(dst, t *tensor.Tensor) *tensor.Tensor { return tensor.DequantizeTensorInto(dst, t) }

// DequantizeWork reports the demand of dequantizing n elements.
func DequantizeWork(n int) work.Work {
	return work.Work{Ops: int64(n) * 2, Bytes: int64(n) * 5, Vectorizable: true}
}

// Softmax computes the numerically-stable softmax of logits in place over
// a float64 copy and returns the probabilities (Mobile BERT's
// "compute logits" step).
func Softmax(logits []float64) []float64 {
	if len(logits) == 0 {
		return nil
	}
	maxV := logits[0]
	for _, v := range logits {
		if v > maxV {
			maxV = v
		}
	}
	out := make([]float64, len(logits))
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - maxV)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// SoftmaxWork reports the demand of softmax over n logits.
func SoftmaxWork(n int) work.Work {
	return work.Work{Ops: int64(n) * 12, Bytes: int64(n) * 16, Vectorizable: true}
}

// FlattenMask converts a DeepLab-style per-pixel class-score tensor of
// shape [1, H, W, C] into an H*W argmax label mask — the "mask
// flattening" step of Table I.
func FlattenMask(t *tensor.Tensor) []int {
	if len(t.Shape) != 4 {
		panic("postproc: FlattenMask expects NHWC scores")
	}
	h, w := t.Shape[1], t.Shape[2]
	return FlattenMaskInto(make([]int, h*w), t)
}

// FlattenMaskInto is the allocation-free variant of FlattenMask: the
// mask is written into dst's storage (grown only if too small). The
// argmax runs tiled over the pixel range with dtype-specialized inner
// loops (see fastpath.go); the result is identical to the sequential
// At-based scan for every dtype.
func FlattenMaskInto(dst []int, t *tensor.Tensor) []int {
	if len(t.Shape) != 4 {
		panic("postproc: FlattenMask expects NHWC scores")
	}
	h, w, c := t.Shape[1], t.Shape[2], t.Shape[3]
	mask := dst
	if cap(mask) < h*w {
		mask = make([]int, h*w)
	}
	mask = mask[:h*w]
	if c == 0 {
		return mask
	}
	task := maskTaskPool.Get()
	*task = maskTask{t: t, c: c, mask: mask}
	par.For(h*w, task)
	*task = maskTask{}
	maskTaskPool.Put(task)
	return mask
}

// FlattenMaskWork reports the demand of flattening an H×W×C score map.
func FlattenMaskWork(h, w, c int) work.Work {
	px := int64(h) * int64(w)
	return work.Work{Ops: px * int64(c), Bytes: px * int64(c) * 4, Vectorizable: true}
}

// Keypoint is a detected body keypoint in image coordinates.
type Keypoint struct {
	X, Y  float64
	Score float64
}

// DecodeKeypoints maps PoseNet heatmap and offset tensors back to image
// coordinates — the "calculate keypoints" step of Table I. heatmaps has
// shape [1, H, W, K]; offsets has shape [1, H, W, 2K] with y-offsets in
// channels [0,K) and x-offsets in [K,2K). outputStride is the model's
// spatial stride (PoseNet uses 32 at 224×224 with 7×7 maps... stride =
// inputSize / (H-1) conventionally; callers pass it explicitly).
func DecodeKeypoints(heatmaps, offsets *tensor.Tensor, outputStride int) []Keypoint {
	return DecodeKeypointsInto(nil, heatmaps, offsets, outputStride)
}

// DecodeKeypointsInto is the allocation-free variant of DecodeKeypoints:
// keypoints are written into dst's storage (grown only if too small).
// Each keypoint's heatmap scan is an independent tile (grain 1 — a scan
// covers the whole H×W map, so even 17 keypoints are worth spreading).
func DecodeKeypointsInto(dst []Keypoint, heatmaps, offsets *tensor.Tensor, outputStride int) []Keypoint {
	if len(heatmaps.Shape) != 4 || len(offsets.Shape) != 4 {
		panic("postproc: DecodeKeypoints expects NHWC tensors")
	}
	h, w, k := heatmaps.Shape[1], heatmaps.Shape[2], heatmaps.Shape[3]
	out := dst
	if cap(out) < k {
		out = make([]Keypoint, k)
	}
	out = out[:k]
	task := kpTaskPool.Get()
	*task = kpTask{heatmaps: heatmaps, offsets: offsets, h: h, w: w, k: k, stride: outputStride, out: out}
	par.ForGrain(k, 1, task)
	*task = kpTask{}
	kpTaskPool.Put(task)
	return out
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// KeypointWork reports the demand of decoding K keypoints from H×W maps.
func KeypointWork(h, w, k int) work.Work {
	cells := int64(h) * int64(w) * int64(k)
	return work.Work{Ops: cells * 2, Bytes: cells * 4}
}

// Box is an axis-aligned detection box with a class and score.
type Box struct {
	YMin, XMin, YMax, XMax float64
	Class                  int
	Score                  float64
}

// Area returns the box area (0 for degenerate boxes).
func (b Box) Area() float64 {
	w := b.XMax - b.XMin
	h := b.YMax - b.YMin
	if w <= 0 || h <= 0 {
		return 0
	}
	return w * h
}

// IoU returns the intersection-over-union of two boxes.
func IoU(a, b Box) float64 {
	ix := math.Min(a.XMax, b.XMax) - math.Max(a.XMin, b.XMin)
	iy := math.Min(a.YMax, b.YMax) - math.Max(a.YMin, b.YMin)
	if ix <= 0 || iy <= 0 {
		return 0
	}
	inter := ix * iy
	union := a.Area() + b.Area() - inter
	if union <= 0 {
		return 0
	}
	return inter / union
}

// Anchor is an SSD prior box (center form).
type Anchor struct{ CY, CX, H, W float64 }

// DefaultAnchors generates a deterministic single-scale anchor grid, a
// simplified SSD prior set: gridSize×gridSize cells with aspect ratios
// 1:1, 2:1 and 1:2.
func DefaultAnchors(gridSize int) []Anchor {
	var out []Anchor
	scale := 1.0 / float64(gridSize)
	ratios := []float64{1, 2, 0.5}
	for y := 0; y < gridSize; y++ {
		for x := 0; x < gridSize; x++ {
			cy := (float64(y) + 0.5) * scale
			cx := (float64(x) + 0.5) * scale
			for _, r := range ratios {
				out = append(out, Anchor{CY: cy, CX: cx, H: scale * 1.5 / math.Sqrt(r), W: scale * 1.5 * math.Sqrt(r)})
			}
		}
	}
	return out
}

// DecodeBoxes converts SSD box regressions (ty, tx, th, tw per anchor)
// and per-anchor class scores into detection boxes, keeping the best
// class per anchor when its score passes threshold. locs has shape
// [1, N, 4] and scores [1, N, C] with C including a background class 0.
func DecodeBoxes(locs, scores *tensor.Tensor, anchors []Anchor, threshold float64) []Box {
	return DecodeBoxesInto(nil, locs, scores, anchors, threshold)
}

// DecodeBoxesInto is the scratch-reusing variant of DecodeBoxes:
// detections are appended into dst[:0], so a caller that passes back the
// returned slice each frame stops allocating once its capacity covers
// the detection count.
func DecodeBoxesInto(dst []Box, locs, scores *tensor.Tensor, anchors []Anchor, threshold float64) []Box {
	if len(locs.Shape) != 3 || len(scores.Shape) != 3 {
		panic("postproc: DecodeBoxes expects [1,N,4] and [1,N,C]")
	}
	n, c := scores.Shape[1], scores.Shape[2]
	if locs.Shape[1] != n || locs.Shape[2] != 4 || n > len(anchors) {
		panic("postproc: box/score/anchor shape mismatch")
	}
	const scaleXY, scaleHW = 10.0, 5.0
	out := dst[:0]
	// Phase 1 — the O(N·C) score filter runs tiled over the anchors,
	// writing each anchor's best class/score into pooled scratch.
	sc := ssdScratchPool.Get().(*ssdScratch)
	sc.bestC = growInt32(sc.bestC, n)
	sc.bestS = growFloat64(sc.bestS, n)
	task := boxScanTaskPool.Get()
	*task = boxScanTask{scores: scores, c: c, bestC: sc.bestC, bestS: sc.bestS}
	par.For(n, task)
	*task = boxScanTask{}
	boxScanTaskPool.Put(task)
	// Phase 2 — the cheap decode of the few surviving anchors stays
	// sequential so detections append in anchor order, as before.
	for i := 0; i < n; i++ {
		bestC, bestS := int(sc.bestC[i]), sc.bestS[i]
		if bestC == 0 || bestS < threshold {
			continue
		}
		a := anchors[i]
		ty, tx := locs.At(i*4), locs.At(i*4+1)
		th, tw := locs.At(i*4+2), locs.At(i*4+3)
		cy := ty/scaleXY*a.H + a.CY
		cx := tx/scaleXY*a.W + a.CX
		hh := math.Exp(th/scaleHW) * a.H
		ww := math.Exp(tw/scaleHW) * a.W
		out = append(out, Box{
			YMin: cy - hh/2, XMin: cx - ww/2,
			YMax: cy + hh/2, XMax: cx + ww/2,
			Class: bestC, Score: bestS,
		})
	}
	ssdScratchPool.Put(sc)
	return out
}

// NMS performs class-aware greedy non-maximum suppression, keeping at
// most maxOut boxes whose pairwise same-class IoU is below iouThresh.
func NMS(boxes []Box, iouThresh float64, maxOut int) []Box {
	sorted := append([]Box(nil), boxes...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Score > sorted[b].Score })
	var kept []Box
	return nmsSorted(kept, sorted, iouThresh, maxOut)
}

// NMSInto is the allocation-free variant of NMS: the candidate copy goes
// into scratch's storage (grown in place so the caller keeps it) and the
// survivors into dst's. Score ties are ordered deterministically by
// descending score with the original slice order preserved (stable),
// which may differ from NMS's unstable sort on exact ties.
func NMSInto(dst []Box, scratch *[]Box, boxes []Box, iouThresh float64, maxOut int) []Box {
	*scratch = append((*scratch)[:0], boxes...)
	sorted := *scratch
	slices.SortStableFunc(sorted, func(a, b Box) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		default:
			return 0
		}
	})
	return nmsSorted(dst[:0], sorted, iouThresh, maxOut)
}

// nmsSorted runs the greedy suppression loop over score-sorted
// candidates, appending survivors to kept.
func nmsSorted(kept, sorted []Box, iouThresh float64, maxOut int) []Box {
	for _, b := range sorted {
		if maxOut > 0 && len(kept) >= maxOut {
			break
		}
		ok := true
		for _, k := range kept {
			if k.Class == b.Class && IoU(k, b) > iouThresh {
				ok = false
				break
			}
		}
		if ok {
			kept = append(kept, b)
		}
	}
	return kept
}

// DetectionWork reports the demand of decoding n anchors with c classes
// plus NMS.
func DetectionWork(n, c int) work.Work {
	return work.Work{
		Ops:   int64(n)*int64(c) + int64(n)*40,
		Bytes: int64(n) * int64(c+16) * 4,
	}
}
