// Allocation pins for the in-place kernel variants: every *Into kernel
// must reach steady state at zero heap allocations per call, so a
// per-frame caller's host cost stays flat no matter how many frames run.
// The pins fail fast and by name.
package aitax_test

import (
	"testing"

	"aitax"
	"aitax/internal/imaging"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/tensor"
)

func TestInPlaceKernelsDoNotAllocate(t *testing.T) {
	frame := imaging.SyntheticFrame(480, 360, 1)
	scene := imaging.SyntheticScene(480, 360, 1)
	argbDst := imaging.NewARGB(480, 360)
	yuvDst := imaging.NewYUV(480, 360)
	resized := imaging.NewARGB(224, 224)
	norm := &tensor.Tensor{}
	quant := &tensor.Tensor{}

	mobilenet, err := aitax.ModelByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	scores := aitax.FabricateOutputs(mobilenet, aitax.Float32, 1)[0]
	var classes []postproc.Class

	ssd, err := aitax.ModelByName("SSD MobileNet v2")
	if err != nil {
		t.Fatal(err)
	}
	dets := aitax.FabricateOutputs(ssd, aitax.Float32, 1)
	anchors := postproc.DefaultAnchors(26)[:1917]
	boxes := postproc.DecodeBoxes(dets[0], dets[1], anchors, 0.5)
	var kept, nmsScratch []postproc.Box
	var decoded []postproc.Box

	deeplab, err := aitax.ModelByName("Deeplab v3")
	if err != nil {
		t.Fatal(err)
	}
	segScores := aitax.FabricateOutputs(deeplab, aitax.Float32, 1)[0]
	var mask []int

	posenet, err := aitax.ModelByName("PoseNet")
	if err != nil {
		t.Fatal(err)
	}
	poseOuts := aitax.FabricateOutputs(posenet, aitax.Float32, 1)
	var keypoints []postproc.Keypoint

	fusedN := &tensor.Tensor{}
	fusedQ := &tensor.Tensor{}

	cases := []struct {
		name string
		fn   func()
	}{
		{"YUVToARGBInto", func() { imaging.YUVToARGBInto(argbDst, frame) }},
		{"ARGBToYUVInto", func() { imaging.ARGBToYUVInto(yuvDst, scene) }},
		{"ResizeBilinearInto", func() { preproc.ResizeBilinearInto(resized, scene, 224, 224) }},
		{"NormalizeInto", func() { preproc.NormalizeInto(norm, resized, 127.5, 127.5) }},
		{"QuantizeInputInto", func() {
			preproc.QuantizeInputInto(quant, resized, tensor.UInt8, tensor.QuantParams{Scale: 1})
		}},
		{"ResizeNormalizeInto", func() { preproc.ResizeNormalizeInto(fusedN, scene, 224, 224, 127.5, 127.5) }},
		{"ResizeQuantizeInto", func() {
			preproc.ResizeQuantizeInto(fusedQ, scene, 224, 224, tensor.UInt8, tensor.QuantParams{Scale: 1})
		}},
		{"TopKInto", func() { classes = postproc.TopKInto(classes[:0], scores, 5) }},
		{"FlattenMaskInto", func() { mask = postproc.FlattenMaskInto(mask[:0], segScores) }},
		{"DecodeBoxesInto", func() {
			decoded = postproc.DecodeBoxesInto(decoded[:0], dets[0], dets[1], anchors, 0.5)
		}},
		{"DecodeKeypointsInto", func() {
			keypoints = postproc.DecodeKeypointsInto(keypoints[:0], poseOuts[0], poseOuts[1], 32)
		}},
		{"NMSInto", func() { kept = postproc.NMSInto(kept[:0], &nmsScratch, boxes, 0.5, 10) }},
	}
	for _, c := range cases {
		c.fn() // reach steady state: first call may size buffers
		if raceEnabled {
			// Race mode drops sync.Pool items at random, so a pooled
			// kernel's refills show up as allocations. The call above
			// gives the kernel race coverage; the non-race run pins the
			// exact count.
			continue
		}
		n := testing.AllocsPerRun(50, c.fn)
		if n != 0 {
			// A GC cycle landing inside the measurement window empties the
			// sync.Pools and charges the refills to the kernel. Re-measure
			// over a longer window: one-off refills average away, a real
			// per-call allocation still reads >= 1.
			n = testing.AllocsPerRun(400, c.fn)
		}
		if n != 0 {
			t.Errorf("%s allocates %.0f times per call at steady state, want 0", c.name, n)
		}
	}
}
