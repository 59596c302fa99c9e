package bench

import (
	"fmt"
	"time"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// PreOffload explores the paper's concluding proposal: "it is necessary
// to consider jointly accelerating these seemingly mundane yet important
// data processing tasks along with ML execution" — e.g. trading "a more
// powerful NPU for a smaller one paired with a DSP for pre-processing".
// Pre-processing moves from managed CPU code to the DSP via FastRPC, and
// the experiment exposes both the win (pixel math at HVX rate) and the
// new cost (the stage queues behind inference on the same DSP).
func PreOffload(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	cases := []struct {
		label  string
		preDSP bool
		bg     int
	}{
		{"CPU (managed)", false, 0},
		{"DSP (FastRPC)", true, 0},
		{"CPU (managed)", false, 3},
		{"DSP (FastRPC)", true, 3},
	}
	samples := make([]*Sample, len(cases))
	for i, c := range cases {
		samples[i] = p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, DType: tensor.UInt8,
			Delegate: tflite.DelegateNNAPI, N: max(cfg.Runs/2, 8), BGJobs: c.bg, BGDelegate: tflite.DelegateHexagon,
			PreOnDSP: c.preDSP}, m)
	}
	return func() *Result {
		r := &Result{
			ID:    "preoffload",
			Title: "Pre-processing placement: managed CPU vs DSP offload (MobileNet v1 int8, NNAPI inference)",
			Headers: []string{"pre placement", "bg DSP jobs", "capture (ms)",
				"pre (ms)", "inference (ms)", "total (ms)"},
		}
		for i, c := range cases {
			smp := samples[i]
			if smp.Err != nil {
				r.Notes = append(r.Notes, "setup failed")
				return r
			}
			st := smp.Mean.Stage
			r.AddRow(c.label, c.bg, msf(st[core.StageCapture]), msf(st[core.StagePre]),
				msf(st[core.StageInference]), msf(smp.Mean.Total))
		}
		// Rows 0, 1 and 3: CPU pre on a free DSP, DSP pre on a free DSP,
		// and DSP pre under DSP tenancy.
		pre := func(i int) time.Duration { return samples[i].Mean.Stage[core.StagePre] }
		cpuPreIdle, dspPreIdle, dspPreLoaded := pre(0), pre(1), pre(3)
		if dspPreIdle < cpuPreIdle && dspPreLoaded > 2*dspPreIdle {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check PASS: DSP pre is %.1fx faster when the DSP is free, but stretches %.1fx under DSP tenancy — placement depends on what else runs (§IV-C)",
				float64(cpuPreIdle)/float64(dspPreIdle), float64(dspPreLoaded)/float64(dspPreIdle)))
		} else {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check FAIL: pre times cpu=%v dspIdle=%v dspLoaded=%v",
				cpuPreIdle, dspPreIdle, dspPreLoaded))
		}
		return r
	}
}
