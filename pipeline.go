package aitax

import (
	"io"

	"aitax/internal/core"
	"aitax/internal/imaging"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/sim"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// PipelineStage identifies one node of the application's stage graph
// (capture→pre→inference→post→ui). A camera frame traverses the whole
// graph via App.ProcessFrame; a served request enters mid-graph via
// App.ProcessRange — its payload arrives over the wire already
// captured — and exits after post-processing.
type PipelineStage = core.Stage

// The pipeline stages in graph order.
const (
	StageCapture   = core.StageCapture
	StagePre       = core.StagePre
	StageInference = core.StageInference
	StagePost      = core.StagePost
	StageUI        = core.StageUI
)

// ParsePipelineStage resolves a stage name ("capture", "pre",
// "inference", "post", "ui") to its PipelineStage.
func ParsePipelineStage(name string) (PipelineStage, error) { return core.ParseStage(name) }

// Imaging and pre-processing (paper §II-A/B).
type (
	// Image is a packed ARGB_8888 bitmap.
	Image = imaging.ARGBImage
	// YUVImage is an NV21 camera frame.
	YUVImage = imaging.YUVImage
	// PreSpec declares a model's pre-processing pipeline.
	PreSpec = preproc.Spec
	// Tensor is a dense FP32/INT8/UINT8 array.
	Tensor = tensor.Tensor
)

// SyntheticScene deterministically paints a procedural test frame.
func SyntheticScene(width, height int, seed uint64) *Image {
	return imaging.SyntheticScene(width, height, seed)
}

// SyntheticFrame produces an NV21 sensor frame of the procedural scene.
func SyntheticFrame(width, height int, seed uint64) *YUVImage {
	return imaging.SyntheticFrame(width, height, seed)
}

// YUVToARGB performs the real NV21→ARGB bitmap-formatting step.
func YUVToARGB(src *YUVImage) *Image { return imaging.YUVToARGB(src) }

// ResizeBilinear scales an image with bilinear interpolation
// (TensorFlow's default resize).
func ResizeBilinear(src *Image, w, h int) *Image { return preproc.ResizeBilinear(src, w, h) }

// CenterCrop extracts the centered w×h region.
func CenterCrop(src *Image, w, h int) *Image { return preproc.CenterCrop(src, w, h) }

// Rotate90 rotates clockwise by quarter turns.
func Rotate90(src *Image, quarterTurns int) *Image { return preproc.Rotate90(src, quarterTurns) }

// Normalize converts an image to a normalized FP32 NHWC tensor.
func Normalize(src *Image, mean, std float64) *Tensor { return preproc.Normalize(src, mean, std) }

// Post-processing (paper §II-E).
type (
	// Class is a classification result.
	Class = postproc.Class
	// Box is a detection box.
	Box = postproc.Box
	// Keypoint is a pose keypoint.
	Keypoint = postproc.Keypoint
	// Anchor is an SSD prior box.
	Anchor = postproc.Anchor
)

// TopK returns the k highest-scoring classes of a model output.
func TopK(t *Tensor, k int) []Class { return postproc.TopK(t, k) }

// Dequantize converts a quantized output tensor to FP32.
func Dequantize(t *Tensor) *Tensor { return postproc.Dequantize(t) }

// Softmax computes numerically-stable probabilities from logits.
func Softmax(logits []float64) []float64 { return postproc.Softmax(logits) }

// FlattenMask converts NHWC class scores into an argmax label mask.
func FlattenMask(t *Tensor) []int { return postproc.FlattenMask(t) }

// DefaultAnchors generates a deterministic SSD prior-box grid.
func DefaultAnchors(gridSize int) []Anchor { return postproc.DefaultAnchors(gridSize) }

// DecodeBoxes converts SSD regressions and scores into detection boxes.
func DecodeBoxes(locs, scores *Tensor, anchors []Anchor, threshold float64) []Box {
	return postproc.DecodeBoxes(locs, scores, anchors, threshold)
}

// NMS performs class-aware greedy non-maximum suppression.
func NMS(boxes []Box, iouThresh float64, maxOut int) []Box {
	return postproc.NMS(boxes, iouThresh, maxOut)
}

// DecodeKeypoints maps PoseNet heatmaps and offsets to image keypoints.
func DecodeKeypoints(heatmaps, offsets *Tensor, outputStride int) []Keypoint {
	return postproc.DecodeKeypoints(heatmaps, offsets, outputStride)
}

// FabricateOutputs synthesizes plausible raw output tensors for a model
// so the real post-processing algorithms have non-trivial inputs (the
// simulator costs inference in virtual time; numerical contents come
// from this seeded generator).
func FabricateOutputs(m *Model, dt DType, seed uint64) []*Tensor {
	return tflite.FabricateOutputs(m, dt, sim.NewRNG(seed))
}

// WritePPM serializes an image as binary PPM (P6) for inspection.
func WritePPM(img *Image, w io.Writer) error { return imaging.WritePPM(img, w) }

// MaskToImage renders a segmentation mask with a deterministic palette.
func MaskToImage(mask []int, w, h int) *Image {
	return imaging.MaskToImage(mask, w, h, nil)
}
