// Quickstart: measure the AI tax of an image-classification app.
//
// This is the library's thirty-second demo: run quantized MobileNet v1
// through NNAPI inside a simulated Android application on a Pixel 3,
// then print where every millisecond of a frame went — and how much of
// it was not inference.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"aitax"
)

func main() {
	fmt.Println(aitax.RenderTaxonomy())

	breakdown, err := aitax.MeasureApp(aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.UInt8,
		Delegate: aitax.DelegateNNAPI,
		Frames:   100,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Quantized MobileNet v1 via NNAPI on a simulated Pixel 3:")
	fmt.Print(breakdown.Render())
	fmt.Printf("\nrun-to-run: %s\n", breakdown.E2E)

	// Contrast with what an inference-only benchmark would report.
	samples, err := aitax.MeasureBenchmark(aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.UInt8,
		Delegate: aitax.DelegateNNAPI,
		Frames:   100,
	})
	if err != nil {
		log.Fatal(err)
	}
	var inf float64
	for _, s := range samples {
		inf += float64(s.Stage[aitax.StageInference].Microseconds()) / 1000
	}
	inf /= float64(len(samples))
	fmt.Printf("\nthe benchmark utility would have told you: %.2f ms/inference —\n", inf)
	fmt.Printf("missing the %.1f%% of application time that is AI tax.\n", 100*breakdown.TaxFraction())
}
