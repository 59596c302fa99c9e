// Semantic segmentation with DeepLab v3: the Table-I workload whose
// post-processing ("mask flattening") dwarfs classification's topK while
// its pre-processing — implemented with native support-library ops — is
// only ~1% of run-time. Writes the input scene and the colored mask as
// PPM files for inspection.
//
//	go run ./examples/segmentation
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"aitax"
)

func main() {
	model, err := aitax.ModelByName("Deeplab-v3 MobileNet-v2")
	if err != nil {
		log.Fatal(err)
	}

	// Real pipeline on real buffers.
	frame := aitax.SyntheticFrame(640, 480, 3)
	bitmap := aitax.YUVToARGB(frame)
	input, w := model.PreSpec(aitax.Float32).Run(bitmap)
	fmt.Printf("pre-processing (%s, native ops): input %v, %d ops\n",
		model.Pre.Tasks(), input.Shape, w.Ops)

	outs := aitax.FabricateOutputs(model, aitax.Float32, 7)
	mask := aitax.FlattenMask(outs[0])
	classes := map[int]int{}
	for _, c := range mask {
		classes[c]++
	}
	fmt.Printf("mask flattening: %d px argmaxed over 21 classes, %d distinct classes present\n",
		len(mask), len(classes))

	dir := os.TempDir()
	scenePath := filepath.Join(dir, "aitax-scene.ppm")
	maskPath := filepath.Join(dir, "aitax-mask.ppm")
	for _, out := range []struct {
		path string
		img  *aitax.Image
	}{
		{scenePath, bitmap},
		{maskPath, aitax.MaskToImage(mask, 513, 513)},
	} {
		f, err := os.Create(out.path)
		if err != nil {
			log.Fatal(err)
		}
		if err := aitax.WritePPM(out.img, f); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Printf("wrote %s\n", out.path)
	}

	// Measured breakdown: inference dominates; pre is ~1%.
	b, err := aitax.MeasureApp(aitax.AppOptions{
		Model: model.Name, DType: aitax.Float32,
		Delegate: aitax.DelegateNNAPI, Frames: 30,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsegmentation app (fp32, NNAPI):\n%s", b.Render())
	fmt.Printf("pre-processing share: %.1f%% (paper: ~1%%)\n",
		100*float64(b.Mean.Stage[aitax.StagePre])/float64(b.Total()))
}
