// Framework shootout: the §IV-B comparison as a runnable scenario. The
// same quantized model goes through the open-source Hexagon delegate,
// NNAPI's automatic device assignment, the vendor-tuned SNPE stack, and
// plain CPU execution — exposing that "not all frameworks are created
// equal" and that a promised accelerator can lose to the CPU when the
// driver support lags.
//
//	go run ./examples/frameworkshootout
package main

import (
	"fmt"
	"log"
	"time"

	"aitax"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// measureDelegate reports warm mean inference latency through a TFLite
// delegate.
func measureDelegate(m *aitax.Model, dt aitax.DType, d aitax.Delegate) (float64, bool) {
	samples, err := aitax.MeasureBenchmark(aitax.AppOptions{
		Model: m.Name, DType: dt, Delegate: d, Frames: 30,
	})
	if err != nil {
		return 0, false
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s.Stage[aitax.StageInference]
	}
	return ms(sum / time.Duration(len(samples))), true
}

// measureSNPE reports warm inference latency through an SNPE runtime.
func measureSNPE(m *aitax.Model, dt aitax.DType, rk aitax.SNPERuntime) (float64, bool) {
	rt := aitax.NewStack(aitax.Pixel3(), 42)
	sdk := rt.NewSNPE()
	net, err := sdk.Load(m.Graph, dt, rk)
	if err != nil {
		return 0, false // DLC conversion failed (unsupported ops)
	}
	var warm time.Duration
	net.Execute(func(aitax.ExecResult) { // cold run absorbs session setup
		start := rt.Eng.Now()
		net.Execute(func(aitax.ExecResult) {
			warm = rt.Eng.Now().Sub(start)
		})
	})
	rt.Eng.Run()
	return ms(warm), true
}

func main() {
	for _, name := range []string{"EfficientNet-Lite0", "MobileNet 1.0 v1", "Inception v4"} {
		m, err := aitax.ModelByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s (int8), warm inference latency on a simulated Pixel 3:\n", name)
		rows := []struct {
			label string
			f     func() (float64, bool)
		}{
			{"TFLite CPU (4 threads)", func() (float64, bool) { return measureDelegate(m, aitax.UInt8, aitax.DelegateCPU) }},
			{"TFLite Hexagon delegate", func() (float64, bool) { return measureDelegate(m, aitax.UInt8, aitax.DelegateHexagon) }},
			{"NNAPI automatic", func() (float64, bool) { return measureDelegate(m, aitax.UInt8, aitax.DelegateNNAPI) }},
			{"SNPE DSP runtime", func() (float64, bool) { return measureSNPE(m, aitax.UInt8, aitax.SNPEDSP) }},
		}
		for _, r := range rows {
			if v, ok := r.f(); ok {
				fmt.Printf("  %-26s %8.2f ms\n", r.label, v)
			} else {
				fmt.Printf("  %-26s %8s\n", r.label, "n/a")
			}
		}
		fmt.Println()
	}
	fmt.Println("takeaway (§IV-B): the same DSP silicon is fastest under the vendor")
	fmt.Println("stack, competitive under the open delegate, and can be the slowest")
	fmt.Println("option of all under NNAPI when the driver rejects the plan.")
}
