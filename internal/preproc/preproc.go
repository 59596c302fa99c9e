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
	"aitax/internal/tensor"
	"aitax/internal/work"
)

// ResizeBilinear scales src to dstW×dstH using bilinear interpolation,
// TensorFlow's default resize algorithm. Runtime scales with the output
// pixel count (quadratically in the output edge length, as the paper
// notes).
func ResizeBilinear(src *imaging.ARGBImage, dstW, dstH int) *imaging.ARGBImage {
	if dstW <= 0 || dstH <= 0 {
		panic(fmt.Sprintf("preproc: invalid resize target %dx%d", dstW, dstH))
	}
	dst := imaging.NewARGB(dstW, dstH)
	xRatio := float64(src.Width-1) / float64(max(dstW-1, 1))
	yRatio := float64(src.Height-1) / float64(max(dstH-1, 1))
	for j := 0; j < dstH; j++ {
		sy := yRatio * float64(j)
		y0 := int(sy)
		y1 := min(y0+1, src.Height-1)
		fy := sy - float64(y0)
		for i := 0; i < dstW; i++ {
			sx := xRatio * float64(i)
			x0 := int(sx)
			x1 := min(x0+1, src.Width-1)
			fx := sx - float64(x0)
			r00, g00, b00 := imaging.RGB(src.At(x0, y0))
			r10, g10, b10 := imaging.RGB(src.At(x1, y0))
			r01, g01, b01 := imaging.RGB(src.At(x0, y1))
			r11, g11, b11 := imaging.RGB(src.At(x1, y1))
			dst.Set(i, j, imaging.PackRGB(
				lerp(r00, r10, r01, r11, fx, fy),
				lerp(g00, g10, g01, g11, fx, fy),
				lerp(b00, b10, b01, b11, fx, fy),
			))
		}
	}
	return dst
}

// lerp blends one channel of the four neighbours a (x0,y0), b (x1,y0),
// c (x0,y1) and d (x1,y1), rounding half up.
func lerp(a, b, c, d uint8, fx, fy float64) uint8 {
	top := float64(a)*(1-fx) + float64(b)*fx
	bot := float64(c)*(1-fx) + float64(d)*fx
	return uint8(top*(1-fy) + bot*fy + 0.5)
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
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("preproc: invalid crop %dx%d", w, h))
	}
	w = min(w, src.Width)
	h = min(h, src.Height)
	x0 := (src.Width - w) / 2
	y0 := (src.Height - h) / 2
	dst := imaging.NewARGB(w, h)
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
	dst := imaging.NewARGB(w, h)
	for y := 0; y < src.Height; y++ {
		for x := 0; x < src.Width; x++ {
			p := src.At(x, y)
			switch quarterTurns {
			case 0:
				dst.Set(x, y, p)
			case 1: // 90° cw: (x,y) -> (H-1-y, x)
				dst.Set(src.Height-1-y, x, p)
			case 2:
				dst.Set(src.Width-1-x, src.Height-1-y, p)
			case 3: // 270° cw: (x,y) -> (y, W-1-x)
				dst.Set(y, src.Width-1-x, p)
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
	if std == 0 {
		panic("preproc: zero normalization std")
	}
	t := tensor.New(tensor.Float32, tensor.Shape{1, src.Height, src.Width, 3})
	for i, p := range src.Pix {
		r, g, b := imaging.RGB(p)
		t.F32[3*i] = float32((float64(r) - mean) / std)
		t.F32[3*i+1] = float32((float64(g) - mean) / std)
		t.F32[3*i+2] = float32((float64(b) - mean) / std)
	}
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
	t := tensor.NewQuant(dt, tensor.Shape{1, src.Height, src.Width, 3}, q)
	for i, p := range src.Pix {
		r, g, b := imaging.RGB(p)
		t.Set(3*i, float64(r))
		t.Set(3*i+1, float64(g))
		t.Set(3*i+2, float64(b))
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
