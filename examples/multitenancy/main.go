// Multi-tenancy: the paper's Figs. 9 and 10 as a runnable scenario. An
// AR-style foreground app offloads classification to the DSP while an
// increasing number of background models contend for either the same
// DSP or the CPU — and the two cases bottleneck entirely different
// pipeline stages.
//
//	go run ./examples/multitenancy
package main

import (
	"fmt"
	"log"
	"time"

	"aitax"
)

func run(bg int, d aitax.Delegate) aitax.Breakdown {
	b, err := aitax.MeasureApp(aitax.AppOptions{
		Model:              "MobileNet 1.0 v1",
		DType:              aitax.UInt8,
		Delegate:           aitax.DelegateNNAPI,
		Frames:             40,
		BackgroundJobs:     bg,
		BackgroundDelegate: d,
	})
	if err != nil {
		log.Fatal(err)
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func main() {
	fmt.Println("foreground: MobileNet v1 int8 via NNAPI (DSP) on a simulated Pixel 3")
	fmt.Println()

	fmt.Println("background inferences on the DSP (paper Fig. 9):")
	fmt.Printf("%-6s %-14s %-14s %-12s\n", "jobs", "capture (ms)", "pre (ms)", "infer (ms)")
	for n := 0; n <= 4; n++ {
		b := run(n, aitax.DelegateHexagon)
		fmt.Printf("%-6d %-14.2f %-14.2f %-12.2f\n",
			n, ms(b.Mean.Stage[aitax.StageCapture]), ms(b.Mean.Stage[aitax.StagePre]),
			ms(b.Mean.Stage[aitax.StageInference]))
	}
	fmt.Println("-> inference stalls on the single DSP; capture+pre stay flat")
	fmt.Println()

	fmt.Println("background inferences on the CPU (paper Fig. 10):")
	fmt.Printf("%-6s %-14s %-14s %-12s\n", "jobs", "capture (ms)", "pre (ms)", "infer (ms)")
	for n := 0; n <= 4; n++ {
		b := run(n, aitax.DelegateCPU)
		fmt.Printf("%-6d %-14.2f %-14.2f %-12.2f\n",
			n, ms(b.Mean.Stage[aitax.StageCapture]), ms(b.Mean.Stage[aitax.StagePre]),
			ms(b.Mean.Stage[aitax.StageInference]))
	}
	fmt.Println("-> capture+pre stretch under CPU contention; DSP inference stays flat")
	fmt.Println()
	fmt.Println("moral (§IV-C): judging device assignment from one pipeline stage in")
	fmt.Println("isolation misleads — the optimal schedule depends on what else runs.")
}
