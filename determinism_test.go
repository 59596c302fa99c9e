// Cross-worker-count bit-exactness: every real pre- and post-processing
// kernel must produce byte-identical output however many workers call
// it at once. The kernels were once tiled over a worker pool; they now
// run on the caller's goroutine, so the property kept here is that they
// share no mutable state: each kernel runs once alone as the reference,
// then from 2, 4 and 8 concurrent goroutines, also under -race.
package aitax_test

import (
	"reflect"
	"sync"
	"testing"

	"aitax"
	"aitax/internal/imaging"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/tensor"
)

func TestTiledKernelsBitExactAtEveryWorkerCount(t *testing.T) {
	frame := imaging.SyntheticFrame(480, 360, 5)
	scene := imaging.SyntheticScene(480, 360, 5)

	deeplab, err := aitax.ModelByName("Deeplab v3")
	if err != nil {
		t.Fatal(err)
	}
	segScores := aitax.FabricateOutputs(deeplab, aitax.Float32, 1)[0]
	ssd, err := aitax.ModelByName("SSD MobileNet v2")
	if err != nil {
		t.Fatal(err)
	}
	dets := aitax.FabricateOutputs(ssd, aitax.Float32, 1)
	anchors := postproc.DefaultAnchors(26)[:dets[1].Shape[1]]
	posenet, err := aitax.ModelByName("PoseNet")
	if err != nil {
		t.Fatal(err)
	}
	poseOuts := aitax.FabricateOutputs(posenet, aitax.Float32, 1)

	quant := tensor.QuantParams{Scale: 0.0078125, ZeroPoint: 128}
	spec := preproc.Spec{TargetW: 224, TargetH: 224, Quantized: true,
		DType: tensor.UInt8, Quant: quant}

	// Each kernel returns a comparable snapshot of its output; the
	// harness runs it per worker count and diffs against one worker.
	kernels := []struct {
		name string
		run  func() any
	}{
		{"YUVToARGB", func() any { return imaging.YUVToARGB(frame).Pix }},
		{"ARGBToYUV", func() any {
			dst := imaging.ARGBToYUV(scene)
			return [][]byte{dst.Y, dst.VU}
		}},
		{"SyntheticScene", func() any { return imaging.SyntheticScene(480, 360, 99).Pix }},
		{"ResizeBilinear", func() any { return preproc.ResizeBilinear(scene, 224, 224).Pix }},
		{"Normalize", func() any { return preproc.Normalize(scene, 127.5, 127.5).F32 }},
		{"QuantizeInput", func() any { return preproc.QuantizeInput(scene, tensor.UInt8, quant).U8 }},
		{"SpecRun", func() any {
			out, _ := spec.Run(scene)
			return out.U8
		}},
		{"FlattenMask", func() any { return postproc.FlattenMask(segScores) }},
		{"DecodeBoxes", func() any { return postproc.DecodeBoxes(dets[0], dets[1], anchors, 0.5) }},
		{"DecodeKeypoints", func() any { return postproc.DecodeKeypoints(poseOuts[0], poseOuts[1], 32) }},
	}

	for _, k := range kernels {
		want := k.run()
		for _, w := range []int{2, 4, 8} {
			got := make([]any, w)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func() {
					defer wg.Done()
					got[i] = k.run()
				}()
			}
			wg.Wait()
			for i, g := range got {
				if !reflect.DeepEqual(g, want) {
					t.Errorf("%s: output of worker %d of %d differs from the one-worker reference", k.name, i, w)
				}
			}
		}
	}
}
