// Cross-worker-count bit-exactness: every kernel tiled on internal/par
// must produce byte-identical output no matter how many workers run it
// (the scheduler's static-partition contract). Each kernel runs once at
// 1 worker as the reference, then at 2, 4 and 8 workers — also under
// -race, which exercises the pool's synchronization.
package aitax_test

import (
	"reflect"
	"testing"

	"aitax"
	"aitax/internal/imaging"
	"aitax/internal/par"
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
	// harness runs it per worker count and diffs against w=1.
	kernels := []struct {
		name string
		run  func() any
	}{
		{"YUVToARGBInto", func() any {
			dst := imaging.NewARGB(frame.Width, frame.Height)
			imaging.YUVToARGBInto(dst, frame)
			return append([]uint32(nil), dst.Pix...)
		}},
		{"ARGBToYUVInto", func() any {
			dst := imaging.NewYUV(scene.Width, scene.Height)
			imaging.ARGBToYUVInto(dst, scene)
			return [][]byte{append([]byte(nil), dst.Y...), append([]byte(nil), dst.VU...)}
		}},
		{"SyntheticSceneInto", func() any {
			dst := imaging.NewARGB(480, 360)
			imaging.SyntheticSceneInto(dst, 99)
			return append([]uint32(nil), dst.Pix...)
		}},
		{"ResizeBilinearInto", func() any {
			dst := imaging.NewARGB(224, 224)
			preproc.ResizeBilinearInto(dst, scene, 224, 224)
			return append([]uint32(nil), dst.Pix...)
		}},
		{"NormalizeInto", func() any {
			out := preproc.Normalize(scene, 127.5, 127.5)
			return append([]float32(nil), out.F32...)
		}},
		{"QuantizeInputInto", func() any {
			out := preproc.QuantizeInput(scene, tensor.UInt8, quant)
			return append([]uint8(nil), out.U8...)
		}},
		{"ResizeNormalizeInto", func() any {
			out := preproc.ResizeNormalizeInto(nil, scene, 224, 224, 127.5, 127.5)
			return append([]float32(nil), out.F32...)
		}},
		{"ResizeQuantizeInto", func() any {
			out := preproc.ResizeQuantizeInto(nil, scene, 224, 224, tensor.UInt8, quant)
			return append([]uint8(nil), out.U8...)
		}},
		{"SpecRunInto", func() any {
			var sc preproc.RunScratch
			out, _ := spec.RunInto(&sc, scene)
			return append([]uint8(nil), out.U8...)
		}},
		{"FlattenMaskInto", func() any {
			return postproc.FlattenMask(segScores)
		}},
		{"DecodeBoxesInto", func() any {
			return postproc.DecodeBoxes(dets[0], dets[1], anchors, 0.5)
		}},
		{"DecodeKeypointsInto", func() any {
			return postproc.DecodeKeypoints(poseOuts[0], poseOuts[1], 32)
		}},
	}

	defer par.SetWorkers(par.SetWorkers(1))
	for _, k := range kernels {
		par.SetWorkers(1)
		want := k.run()
		for _, w := range []int{2, 4, 8} {
			par.SetWorkers(w)
			if got := k.run(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: output at %d workers differs from sequential reference", k.name, w)
			}
		}
	}
}
