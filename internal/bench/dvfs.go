package bench

import (
	"fmt"
	"time"

	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// DVFSRamp shows the frequency-governor contribution to cold-start
// latency that warmed-up, frequency-pinned benchmarks never see: on a
// system with schedutil-style DVFS, the first CPU inferences after idle
// run at the lowest frequency step and ramp over the first tens of
// milliseconds.
func DVFSRamp(cfg Config) *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:      "dvfs",
		Title:   "DVFS cold ramp: consecutive CPU inferences from idle (MobileNet v1 fp32)",
		Headers: []string{"Inference #", "pinned freq (ms)", "with governor (ms)", "governor penalty"},
	}

	measure := func(dvfs bool) []time.Duration {
		eng := sim.NewEngine()
		schedCfg := sched.DefaultConfig()
		schedCfg.DVFS = dvfs
		sch := sched.New(eng, schedCfg)
		rt := tflite.NewRuntime(eng, sch, Run{Platform: cfg.Platform.Name}.platform(cfg.Platform), cfg.Seed)
		ip, err := rt.NewInterpreter(m, tensor.Float32, tflite.Options{Delegate: tflite.DelegateCPU})
		if err != nil {
			return nil
		}
		var lats []time.Duration
		ip.Init(func() {
			ip.InvokeWhile(func(i int) bool { return i < 6 }, func(_ tflite.Report, d time.Duration) {
				lats = append(lats, d)
			})
		})
		eng.Run()
		return lats
	}

	pinned := measure(false)
	governed := measure(true)
	if len(pinned) != len(governed) || len(pinned) == 0 {
		r.Notes = append(r.Notes, "setup failed: measurement mismatch")
		return r
	}
	for i := range pinned {
		r.AddRow(i+1, msf(pinned[i]), msf(governed[i]),
			fmt.Sprintf("%.2fx", float64(governed[i])/float64(pinned[i])))
	}
	first := float64(governed[0]) / float64(pinned[0])
	last := float64(governed[len(governed)-1]) / float64(pinned[len(pinned)-1])
	if first > 1.2 && last < first {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: first inference pays %.2fx for the frequency ramp, decaying to %.2fx at steady state",
			first, last))
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check FAIL: ramp penalties %.2fx -> %.2fx", first, last))
	}
	r.Notes = append(r.Notes,
		"extends §IV-C's cold-start discussion: accelerator session setup is not the only first-use cost — CPU frequency ramp hits pure-CPU inference too")
	return r
}
