package bench

import (
	"fmt"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// ResolutionSweep quantifies §II-A's warning: "an incorrect choice of
// image resolution can cause non-linear performance drops if image
// processing algorithms in later parts of the ML pipeline do not scale
// with image size". The same classification app runs with increasing
// camera preview resolutions; inference is untouched while the
// capture+pre tax grows with the pixel count.
func ResolutionSweep(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	sizes := [][2]int{{320, 240}, {480, 360}, {640, 480}, {1280, 720}}
	samples := make([]*Sample, len(sizes))
	for i, sz := range sizes {
		samples[i] = p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, DType: tensor.UInt8,
			Delegate: tflite.DelegateNNAPI, N: max(cfg.Runs/2, 8), PreviewW: sz[0], PreviewH: sz[1]}, m)
	}
	return func() *Result {
		r := &Result{
			ID:    "resolution",
			Title: "Camera preview resolution vs AI tax (MobileNet v1 int8, NNAPI)",
			Headers: []string{"Preview", "pixels", "capture (ms)", "pre (ms)",
				"inference (ms)", "tax share"},
		}
		for i, smp := range samples {
			if smp.Err != nil {
				r.Notes = append(r.Notes, "setup failed: "+smp.Err.Error())
				return r
			}
			w, h := sizes[i][0], sizes[i][1]
			s := smp.Mean.Stage
			tax := float64(smp.Mean.Total-s[core.StageInference]) / float64(smp.Mean.Total)
			r.AddRow(fmt.Sprintf("%dx%d", w, h), w*h,
				msf(s[core.StageCapture]), msf(s[core.StagePre]), msf(s[core.StageInference]),
				fmt.Sprintf("%.0f%%", 100*tax))
		}
		first, last := samples[0].Mean.Stage, samples[len(samples)-1].Mean.Stage
		capGrowth := float64(last[core.StageCapture]+last[core.StagePre]) / float64(first[core.StageCapture]+first[core.StagePre])
		pxGrowth := float64(1280*720) / float64(320*240)
		infGrowth := float64(last[core.StageInference]) / float64(first[core.StageInference])
		if capGrowth > 4 && infGrowth < 1.3 {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check PASS: %.0fx more pixels cost %.1fx more capture+pre while inference stays flat (%.2fx) — resolution choice is an AI-tax lever (§II-A)",
				pxGrowth, capGrowth, infGrowth))
		} else {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check FAIL: capture+pre growth %.1fx, inference growth %.2fx", capGrowth, infGrowth))
		}
		return r
	}
}
