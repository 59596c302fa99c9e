package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
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
func PreOffload(cfg Config) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:    "preoffload",
		Title: "Pre-processing placement: managed CPU vs DSP offload (MobileNet v1 int8, NNAPI inference)",
		Headers: []string{"pre placement", "bg DSP jobs", "capture (ms)",
			"pre (ms)", "inference (ms)", "total (ms)"},
	}
	frames := cfg.Runs / 2
	if frames < 8 {
		frames = 8
	}
	run := func(preDSP bool, bgJobs int) (core.StageTimes, bool) {
		rt := tflite.NewStack(clonePlatform(cfg.Platform), cfg.Seed)
		a, err := app.New(rt, app.Config{
			Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI,
			Streaming: true, PreOnDSP: preDSP,
		})
		if err != nil {
			return core.StageTimes{}, false
		}
		sts, err := a.Measure(context.Background(), warmupFrames, frames, bgJobs, tflite.DelegateHexagon)
		return core.Mean(sts), err == nil
	}

	var cpuPreIdle, dspPreIdle, dspPreLoaded time.Duration
	for _, c := range []struct {
		label  string
		preDSP bool
		bg     int
	}{
		{"CPU (managed)", false, 0},
		{"DSP (FastRPC)", true, 0},
		{"CPU (managed)", false, 3},
		{"DSP (FastRPC)", true, 3},
	} {
		mean, ok := run(c.preDSP, c.bg)
		if !ok {
			r.Notes = append(r.Notes, "setup failed")
			return r
		}
		pre := mean.Stage[core.StagePre]
		r.AddRow(c.label, c.bg, msf(mean.Stage[core.StageCapture]), msf(pre),
			msf(mean.Stage[core.StageInference]), msf(mean.Total))
		switch {
		case !c.preDSP && c.bg == 0:
			cpuPreIdle = pre
		case c.preDSP && c.bg == 0:
			dspPreIdle = pre
		case c.preDSP && c.bg == 3:
			dspPreLoaded = pre
		}
	}
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
