package preproc

import (
	"fmt"
	"strings"

	"aitax/internal/imaging"
	"aitax/internal/tensor"
	"aitax/internal/work"
)

// Spec declares the pre-processing pipeline a model requires, i.e. the
// "Pre-processing Task" column of the paper's Table I.
type Spec struct {
	// Vision pipeline.
	CropFraction float64 // central fraction to keep; 0 disables cropping
	TargetW      int     // network input width; 0 disables resize
	TargetH      int     // network input height
	Mean, Std    float64 // normalization parameters (fp32 models)
	RotateTurns  int     // clockwise quarter turns (PoseNet-style apps)

	// Quantized models convert bytes straight into the quantized domain.
	Quantized bool
	DType     tensor.DType
	Quant     tensor.QuantParams

	// Language pipeline (Mobile BERT). When set, the vision fields are
	// ignored and Run tokenizes SampleText instead.
	Tokenize   bool
	MaxTokens  int
	SampleText string

	// Native marks pipelines implemented with the TFLite support
	// library's vectorized native ops (the segmentation demo) rather
	// than per-pixel managed code (the classification/pose demos). The
	// app costs native pipelines at vector rate, managed ones at scalar
	// rate with an interpretation penalty — the reason DeepLab's
	// pre-processing is ~1% of its run-time while MobileNet's rivals its
	// inference (§IV-A).
	Native bool
}

// Tasks lists the pipeline's steps in Table-I vocabulary
// ("scale, crop, normalize", "tokenization", ...).
func (s Spec) Tasks() string {
	if s.Tokenize {
		return "tokenization"
	}
	var parts []string
	if s.TargetW > 0 {
		parts = append(parts, "scale")
	}
	if s.CropFraction > 0 {
		parts = append(parts, "crop")
	}
	parts = append(parts, "normalize")
	if s.RotateTurns != 0 {
		parts = append(parts, "rotate")
	}
	return strings.Join(parts, ", ")
}

// Run executes the pipeline for real on frame and returns the model input
// tensor together with the compute demand of the steps performed. For a
// tokenizing spec, frame may be nil.
func (s Spec) Run(frame *imaging.ARGBImage) (*tensor.Tensor, work.Work) {
	if s.Tokenize {
		maxLen := s.MaxTokens
		if maxLen == 0 {
			maxLen = 128
		}
		t := tensor.New(tensor.Int32, tensor.Shape{1, maxLen})
		for i, id := range Tokenize(s.SampleText, BasicVocab(), maxLen) {
			t.I32[i] = int32(id)
		}
		return t, TokenizeWork(len(s.SampleText))
	}
	if frame == nil {
		panic("preproc: vision spec requires a frame")
	}

	var w work.Work
	img := frame
	if s.RotateTurns != 0 {
		img = Rotate90(img, s.RotateTurns)
		w = w.Add(RotateWork(img.Width, img.Height))
	}
	if s.CropFraction > 0 {
		img = CropFraction(img, s.CropFraction)
		w = w.Add(CropWork(img.Width, img.Height))
	}
	if s.TargetW > 0 && (img.Width != s.TargetW || img.Height != s.TargetH) {
		img = ResizeBilinear(img, s.TargetW, s.TargetH)
		w = w.Add(ResizeWork(img.Width, img.Height))
	}
	if s.Quantized {
		w = w.Add(TypeConvertWork(img.Width, img.Height, s.DType.Size()))
		return QuantizeInput(img, s.DType, s.Quant), w
	}
	std := s.Std
	if std == 0 {
		std = 1
	}
	w = w.Add(NormalizeWork(img.Width, img.Height))
	return Normalize(img, s.Mean, std), w
}

// Work reports the compute demand of running the pipeline on a frame of
// the given size, without executing it (used by the simulator to cost the
// stage onto a device).
func (s Spec) Work(frameW, frameH int) work.Work {
	if s.Tokenize {
		return TokenizeWork(len(s.SampleText))
	}
	var w work.Work
	cw, ch := frameW, frameH
	if s.RotateTurns != 0 {
		w = w.Add(RotateWork(cw, ch))
	}
	if s.CropFraction > 0 {
		cw = int(float64(cw) * s.CropFraction)
		ch = int(float64(ch) * s.CropFraction)
		w = w.Add(CropWork(cw, ch))
	}
	if s.TargetW > 0 {
		cw, ch = s.TargetW, s.TargetH
		w = w.Add(ResizeWork(cw, ch))
	}
	if s.Quantized {
		return w.Add(TypeConvertWork(cw, ch, s.DType.Size()))
	}
	return w.Add(NormalizeWork(cw, ch))
}

// Validate checks the spec for internal consistency.
func (s Spec) Validate() error {
	if s.Tokenize {
		if s.MaxTokens < 0 {
			return fmt.Errorf("preproc: negative MaxTokens %d", s.MaxTokens)
		}
		return nil
	}
	if s.TargetW < 0 || s.TargetH < 0 {
		return fmt.Errorf("preproc: negative target %dx%d", s.TargetW, s.TargetH)
	}
	if (s.TargetW == 0) != (s.TargetH == 0) {
		return fmt.Errorf("preproc: target dimensions must both be set or both zero")
	}
	if s.CropFraction < 0 || s.CropFraction > 1 {
		return fmt.Errorf("preproc: crop fraction %v outside (0,1]", s.CropFraction)
	}
	if !s.Quantized && s.Std < 0 {
		return fmt.Errorf("preproc: negative std %v", s.Std)
	}
	if s.Quantized && s.DType != tensor.Int8 && s.DType != tensor.UInt8 {
		return fmt.Errorf("preproc: quantized spec needs int8/uint8 dtype, got %v", s.DType)
	}
	return nil
}
