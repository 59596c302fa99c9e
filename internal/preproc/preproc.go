// Package preproc implements the pre-processing algorithms the paper
// catalogues in §II-B: bitmap formatting, scale (bilinear interpolation),
// center crop, normalization, rotation, type conversion/quantization, and
// tokenization for language models. Every kernel is a real implementation
// operating on real buffers; each also reports its compute demand as
// work.Work so the simulator can cost it onto a device.
package preproc

import (
	"fmt"
	"strings"

	"aitax/internal/imaging"
	"aitax/internal/par"
	"aitax/internal/tensor"
	"aitax/internal/work"
)

// ResizeBilinear scales src to dstW×dstH using bilinear interpolation,
// TensorFlow's default resize algorithm. Runtime scales with the output
// pixel count (quadratically in the output edge length, as the paper
// notes).
func ResizeBilinear(src *imaging.ARGBImage, dstW, dstH int) *imaging.ARGBImage {
	return ResizeBilinearInto(imaging.NewARGB(dstW, dstH), src, dstW, dstH)
}

// ResizeBilinearInto is the in-place variant of ResizeBilinear: it scales
// into dst (resized to dstW×dstH) and allocates nothing when dst's
// backing array is already large enough. Sample positions and lerp
// weights come from the per-geometry coefficient cache (kernels.go) and
// the rows are tiled across the par worker pool; the arithmetic per
// pixel is unchanged, so the output is bit-identical to the original
// scalar loop at any worker count. Returns dst.
func ResizeBilinearInto(dst *imaging.ARGBImage, src *imaging.ARGBImage, dstW, dstH int) *imaging.ARGBImage {
	if dstW <= 0 || dstH <= 0 {
		panic(fmt.Sprintf("preproc: invalid resize target %dx%d", dstW, dstH))
	}
	dst.Resize(dstW, dstH)
	task := resizeTaskPool.Get()
	*task = resizeTask{plan: planFor(src.Width, src.Height, dstW, dstH), src: src, dst: dst}
	par.For(dstH, task)
	*task = resizeTask{}
	resizeTaskPool.Put(task)
	return dst
}

// ResizeWork reports the compute demand of a bilinear resize to w×h.
func ResizeWork(w, h int) work.Work {
	px := int64(w) * int64(h)
	return work.Work{
		Ops:          px * 3 * 8,     // 3 channels × ~8 ops per lerp
		Bytes:        px * (4*4 + 4), // 4 source reads + 1 write, 4B each
		Vectorizable: true,
	}
}

// CenterCrop extracts the centered w×h region. If the source is smaller
// along a dimension, the whole extent is used. Inception-style models
// center-crop before scaling (§II-B).
func CenterCrop(src *imaging.ARGBImage, w, h int) *imaging.ARGBImage {
	return CenterCropInto(imaging.NewARGB(min(w, src.Width), min(h, src.Height)), src, w, h)
}

// CenterCropInto is the in-place variant of CenterCrop. Returns dst.
func CenterCropInto(dst *imaging.ARGBImage, src *imaging.ARGBImage, w, h int) *imaging.ARGBImage {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("preproc: invalid crop %dx%d", w, h))
	}
	w = min(w, src.Width)
	h = min(h, src.Height)
	x0 := (src.Width - w) / 2
	y0 := (src.Height - h) / 2
	dst.Resize(w, h)
	for j := 0; j < h; j++ {
		srcOff := (y0+j)*src.Width + x0
		copy(dst.Pix[j*w:j*w+w], src.Pix[srcOff:srcOff+w])
	}
	return dst
}

// CropWork reports the compute demand of cropping to w×h (a bounding-box
// computation plus a tensor reshape/copy, as §II-B describes).
func CropWork(w, h int) work.Work {
	px := int64(w) * int64(h)
	return work.Work{Ops: px, Bytes: px * 8, Vectorizable: true}
}

// CropFraction center-crops a fixed fraction of the image (e.g. 0.875 for
// Inception's 87.5% central fraction) and returns the result.
func CropFraction(src *imaging.ARGBImage, fraction float64) *imaging.ARGBImage {
	if fraction <= 0 || fraction > 1 {
		panic(fmt.Sprintf("preproc: invalid crop fraction %v", fraction))
	}
	return CenterCrop(src, int(float64(src.Width)*fraction), int(float64(src.Height)*fraction))
}

// Rotate90 rotates the image clockwise by quarterTurns×90°. PoseNet-style
// applications rotate frames to match sensor orientation; the cost scales
// with the pixel count (quadratically in edge length, §II-B).
func Rotate90(src *imaging.ARGBImage, quarterTurns int) *imaging.ARGBImage {
	quarterTurns = ((quarterTurns % 4) + 4) % 4
	w, h := src.Width, src.Height
	if quarterTurns%2 == 1 {
		w, h = h, w
	}
	return Rotate90Into(imaging.NewARGB(w, h), src, quarterTurns)
}

// Rotate90Into is the in-place variant of Rotate90 (dst must not alias
// src). Returns dst.
func Rotate90Into(dst *imaging.ARGBImage, src *imaging.ARGBImage, quarterTurns int) *imaging.ARGBImage {
	quarterTurns = ((quarterTurns % 4) + 4) % 4
	switch quarterTurns {
	case 0:
		dst.Resize(src.Width, src.Height)
		copy(dst.Pix, src.Pix)
	case 1: // 90° cw: (x,y) -> (H-1-y, x)
		dst.Resize(src.Height, src.Width)
		for j := 0; j < src.Height; j++ {
			row := src.Pix[j*src.Width : j*src.Width+src.Width]
			x := src.Height - 1 - j
			for i, p := range row {
				dst.Pix[i*dst.Width+x] = p
			}
		}
	case 2:
		dst.Resize(src.Width, src.Height)
		for j := 0; j < src.Height; j++ {
			row := src.Pix[j*src.Width : j*src.Width+src.Width]
			out := dst.Pix[(src.Height-1-j)*dst.Width : (src.Height-j)*dst.Width]
			for i, p := range row {
				out[src.Width-1-i] = p
			}
		}
	case 3: // 270° cw: (x,y) -> (y, W-1-x)
		dst.Resize(src.Height, src.Width)
		for j := 0; j < src.Height; j++ {
			row := src.Pix[j*src.Width : j*src.Width+src.Width]
			for i, p := range row {
				dst.Pix[(src.Width-1-i)*dst.Width+j] = p
			}
		}
	}
	return dst
}

// RotateWork reports the compute demand of rotating a w×h image.
func RotateWork(w, h int) work.Work {
	px := int64(w) * int64(h)
	return work.Work{Ops: px * 2, Bytes: px * 8, Vectorizable: false}
}

// Normalize converts an ARGB image to an NHWC FP32 tensor with the given
// per-channel mean and standard deviation: out = (px - mean) / std.
// Nearly all networks require normalized inputs (§II-B); runtime is linear
// in the pixel count.
func Normalize(src *imaging.ARGBImage, mean, std float64) *tensor.Tensor {
	return NormalizeInto(nil, src, mean, std)
}

// NormalizeInto is the scratch-reusing variant of Normalize: dst (which
// may be nil) is recycled through tensor.Ensure, so a steady-state
// caller allocates nothing. Returns the tensor.
func NormalizeInto(dst *tensor.Tensor, src *imaging.ARGBImage, mean, std float64) *tensor.Tensor {
	if std == 0 {
		panic("preproc: zero normalization std")
	}
	t := tensor.Ensure(dst, tensor.Float32, tensor.Shape{1, src.Height, src.Width, 3})
	task := normalizeTaskPool.Get()
	*task = normalizeTask{src: src, tab: normTabFor(mean, std), out: t.F32}
	par.For(src.Height, task)
	*task = normalizeTask{}
	normalizeTaskPool.Put(task)
	return t
}

// NormalizeWork reports the compute demand of normalizing a w×h frame.
func NormalizeWork(w, h int) work.Work {
	px := int64(w) * int64(h)
	return work.Work{Ops: px * 3 * 2, Bytes: px * (4 + 12), Vectorizable: true}
}

// QuantizeInput converts an ARGB image directly to a quantized NHWC
// tensor, the type-conversion step quantized models require (§II-B).
// Camera bytes map to the quantized domain through params q.
func QuantizeInput(src *imaging.ARGBImage, dt tensor.DType, q tensor.QuantParams) *tensor.Tensor {
	return QuantizeInputInto(nil, src, dt, q)
}

// QuantizeInputInto is the scratch-reusing variant of QuantizeInput: dst
// (which may be nil) is recycled through tensor.Ensure. Returns the
// tensor.
func QuantizeInputInto(dst *tensor.Tensor, src *imaging.ARGBImage, dt tensor.DType, q tensor.QuantParams) *tensor.Tensor {
	t := tensor.Ensure(dst, dt, tensor.Shape{1, src.Height, src.Width, 3})
	t.Quant = q
	if dt == tensor.UInt8 || dt == tensor.Int8 {
		// Byte targets collapse to a cached 256-entry table built with
		// the same Quantize call the scalar loop made per channel.
		task := quantizeTaskPool.Get()
		*task = quantizeTask{src: src, tab: quantTabFor(dt, q)}
		if dt == tensor.UInt8 {
			task.u8 = t.U8
		} else {
			task.i8 = t.I8
		}
		par.For(src.Height, task)
		*task = quantizeTask{}
		quantizeTaskPool.Put(task)
		return t
	}
	idx := 0
	for j := 0; j < src.Height; j++ {
		row := src.Pix[j*src.Width : j*src.Width+src.Width]
		for _, p := range row {
			r, g, b := imaging.RGB(p)
			t.Set(idx, float64(r))
			t.Set(idx+1, float64(g))
			t.Set(idx+2, float64(b))
			idx += 3
		}
	}
	return t
}

// TypeConvertWork reports the demand of converting and/or quantizing a
// w×h frame into a model input tensor with elemBytes-wide elements.
func TypeConvertWork(w, h, elemBytes int) work.Work {
	px := int64(w) * int64(h)
	return work.Work{Ops: px * 3, Bytes: px * (4 + 3*int64(elemBytes)), Vectorizable: true}
}

// Tokenize performs the WordPiece-style greedy longest-match-first
// tokenization Mobile BERT uses, against the supplied vocabulary.
// Unknown words map to [UNK]; the output is padded/truncated to maxLen
// with [CLS]/[SEP] markers, mirroring the BERT input pipeline.
func Tokenize(text string, vocab map[string]int, maxLen int) []int {
	if maxLen < 2 {
		panic("preproc: maxLen must fit [CLS] and [SEP]")
	}
	ids := []int{vocab["[CLS]"]}
	words := strings.Fields(strings.ToLower(text))
	for _, w := range words {
		if len(ids) >= maxLen-1 {
			break
		}
		ids = append(ids, wordPiece(w, vocab, maxLen-1-len(ids))...)
	}
	if len(ids) > maxLen-1 {
		ids = ids[:maxLen-1]
	}
	ids = append(ids, vocab["[SEP]"])
	for len(ids) < maxLen {
		ids = append(ids, vocab["[PAD]"])
	}
	return ids
}

func wordPiece(w string, vocab map[string]int, budget int) []int {
	var out []int
	start := 0
	for start < len(w) && len(out) < budget {
		end := len(w)
		found := -1
		for end > start {
			piece := w[start:end]
			if start > 0 {
				piece = "##" + piece
			}
			if id, ok := vocab[piece]; ok {
				found = id
				break
			}
			end--
		}
		if found < 0 {
			return []int{vocab["[UNK]"]}
		}
		out = append(out, found)
		start = end
	}
	return out
}

// TokenizeWork reports the demand of tokenizing n characters.
func TokenizeWork(nChars int) work.Work {
	return work.Work{Ops: int64(nChars) * 24, Bytes: int64(nChars) * 16, Vectorizable: false}
}

// BasicVocab returns a small deterministic vocabulary suitable for
// exercising the tokenizer: special tokens, ASCII words and common
// suffix pieces.
func BasicVocab() map[string]int {
	v := map[string]int{"[PAD]": 0, "[UNK]": 1, "[CLS]": 2, "[SEP]": 3}
	next := 4
	for _, w := range []string{
		"the", "a", "of", "and", "to", "in", "is", "it", "on", "for",
		"this", "that", "with", "phone", "camera", "image", "model",
		"fast", "slow", "good", "bad", "great", "battery", "screen",
		"love", "hate", "works", "app", "photo", "quality",
	} {
		v[w] = next
		next++
	}
	for _, p := range []string{"##s", "##ing", "##ed", "##er", "##ly", "##est"} {
		v[p] = next
		next++
	}
	for c := 'a'; c <= 'z'; c++ {
		v[string(c)] = next
		v["##"+string(c)] = next + 1
		next += 2
	}
	return v
}
