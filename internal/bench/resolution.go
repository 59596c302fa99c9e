package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/capture"
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
func ResolutionSweep(cfg Config) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:    "resolution",
		Title: "Camera preview resolution vs AI tax (MobileNet v1 int8, NNAPI)",
		Headers: []string{"Preview", "pixels", "capture (ms)", "pre (ms)",
			"inference (ms)", "tax share"},
	}
	frames := cfg.Runs / 2
	if frames < 8 {
		frames = 8
	}
	type res struct{ w, h int }
	var first, last [core.NumStages]time.Duration
	sizes := []res{{320, 240}, {480, 360}, {640, 480}, {1280, 720}}
	for i, sz := range sizes {
		rt := tflite.NewStack(clonePlatform(cfg.Platform), cfg.Seed)
		a, err := app.New(rt, app.Config{
			Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI, Streaming: true,
		})
		if err != nil {
			r.Notes = append(r.Notes, "setup failed: "+err.Error())
			return r
		}
		a.SetCamera(capture.NewCamera(rt.Eng, rt.RNG, sz.w, sz.h))
		sts, err := a.Measure(context.Background(), warmupFrames, frames, 0, 0)
		if err != nil {
			r.Notes = append(r.Notes, "run failed: "+err.Error())
			return r
		}
		mean := core.Mean(sts)
		s := mean.Stage
		tax := float64(mean.Total-s[core.StageInference]) / float64(mean.Total)
		r.AddRow(fmt.Sprintf("%dx%d", sz.w, sz.h), sz.w*sz.h,
			msf(s[core.StageCapture]), msf(s[core.StagePre]), msf(s[core.StageInference]),
			fmt.Sprintf("%.0f%%", 100*tax))
		if i == 0 {
			first = s
		}
		last = s
	}
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
