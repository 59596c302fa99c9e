package bench

import (
	"fmt"
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/nn"
	"aitax/internal/nnapi"
	"aitax/internal/tensor"

	"aitax/internal/models"
)

// DriverFix plays out §IV-B's prediction — "Future iterations may likely
// fix this performance 'bug'" — by re-running the Fig. 5 workload against
// a hypothetical vendor driver whose INT8 operator set includes the
// quantized ADD variant. With the support gap closed, the same NNAPI
// machinery produces a clean single-partition DSP plan and the 7x cliff
// becomes a 5x win.
func DriverFix(cfg Config) *Result {
	m, _ := models.ByName("EfficientNet-Lite0")
	r := &Result{
		ID:      "driverfix",
		Title:   "Fig. 5 counterfactual: vendor driver with quantized ADD support",
		Headers: []string{"Driver", "plan", "partitions", "warm latency (ms)"},
	}

	fixedSupports := func(op *nn.Op, dt tensor.DType) bool {
		if driver.NNAPIVendorSupports(op, dt) {
			return true
		}
		// The one missing operator, implemented.
		return op.Kind == nn.Add
	}

	var lagging, fixed time.Duration
	for _, c := range []struct {
		label    string
		supports func(*nn.Op, tensor.DType) bool
	}{
		{"lagging (as measured)", driver.NNAPIVendorSupports},
		{"fixed (quantized ADD implemented)", fixedSupports},
	} {
		rt := cfg.stack()
		p := rt.Platform
		ch := fastrpc.NewChannel(rt.Eng, p.RPC, rt.DSP)
		fw := nnapi.New(nnapi.Config{
			Engine:       rt.Eng,
			AccelFP32:    driver.NewGPUTarget("nnapi-gpu", rt.Eng, &p.GPU, rt.GPUQueue, c.supports),
			AccelInt8:    driver.NewDSPTarget("nnapi-dsp", &p.DSP, ch, 0.6, c.supports),
			FallbackCPU:  driver.NewCPUTarget("nnapi-cpu-fallback", rt.Sch, &p.Big, 4),
			ReferenceCPU: driver.NewReferenceCPUTarget("nnapi-ref", rt.Sch, &p.Big),
			Supports:     c.supports,
		})
		cm := fw.Compile(m.Graph, tensor.UInt8, nnapi.FastSingleAnswer)
		plan := "partitioned (DSP)"
		if cm.ReferenceFallback {
			plan = "reference CPU fallback"
		}
		warm, _ := warmRun(rt, func(done func(nnapi.Report)) { fw.Execute(cm, done) })
		r.AddRow(c.label, plan, len(cm.Partitions), msf(warm.Total()))
		if c.label[0] == 'l' {
			lagging = warm.Total()
		} else {
			fixed = warm.Total()
		}
	}
	if fixed > 0 && lagging > 10*fixed {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: implementing one missing INT8 operator turns the reference-CPU fallback into a clean DSP plan, %.1fx faster",
			ms(lagging)/ms(fixed)))
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check FAIL: lagging=%v fixed=%v", lagging, fixed))
	}
	r.Notes = append(r.Notes,
		"the entire Fig. 5 pathology hinges on a single operator's driver support — the transparency argument of the paper's framework takeaway")
	return r
}
