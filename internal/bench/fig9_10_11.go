package bench

import (
	"fmt"
	"time"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/stats"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// multiTenancy runs the classification app with 0..maxBG background
// inference jobs on the given delegate and tabulates the stage means.
func multiTenancy(cfg Config, bgDelegate tflite.Delegate, id, title string) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:    id,
		Title: title,
		Headers: []string{"Background jobs", "capture (ms)", "pre (ms)",
			"inference (ms)", "post (ms)", "total (ms)"},
	}
	frames := cfg.Runs / 2
	if frames < 8 {
		frames = 8
	}
	var inf0, infN, capPre0, capPreN time.Duration
	var xs, ys []float64
	maxBG := 4
	for n := 0; n <= maxBG; n++ {
		sts, err := appRun(cfg.Platform, cfg.Seed, m, tensor.UInt8, tflite.DelegateNNAPI, frames, n, bgDelegate)
		if err != nil {
			r.Notes = append(r.Notes, "setup failed: "+err.Error())
			return r
		}
		mean := core.Mean(sts)
		s := mean.Stage
		r.AddRow(n, msf(s[core.StageCapture]), msf(s[core.StagePre]), msf(s[core.StageInference]),
			msf(s[core.StagePost]), msf(mean.Total))
		xs = append(xs, float64(n))
		ys = append(ys, ms(s[core.StageInference]))
		if n == 0 {
			inf0, capPre0 = s[core.StageInference], s[core.StageCapture]+s[core.StagePre]
		}
		if n == maxBG {
			infN, capPreN = s[core.StageInference], s[core.StageCapture]+s[core.StagePre]
		}
	}
	infGrowth := float64(infN) / float64(inf0)
	capGrowth := float64(capPreN) / float64(capPre0)
	r.Notes = append(r.Notes, fmt.Sprintf(
		"inference latency grew %.1fx, capture+pre grew %.1fx across 0->%d background jobs",
		infGrowth, capGrowth, maxBG))
	if fit := stats.LinReg(xs, ys); infGrowth > 1.5 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"linearity of the inference growth: %.2f ms per background job, R^2 = %.3f (paper: \"linear increase\")",
			fit.Slope, fit.R2))
	}
	return r
}

// Figure9 regenerates the paper's Fig. 9: latency breakdown of the image
// classification app while increasingly many background inferences run
// through the NNAPI Hexagon path. Inference stalls on the single DSP;
// capture and pre-processing stay approximately constant.
func Figure9(cfg Config) *Result {
	r := multiTenancy(cfg, tflite.DelegateHexagon, "fig9",
		"App breakdown vs background NNAPI(DSP) inferences")
	r.Notes = append(r.Notes,
		"expected shape: inference grows ~linearly (one DSP), capture+pre flat (paper Fig. 9)")
	return r
}

// Figure10 regenerates the paper's Fig. 10: the same experiment with the
// background inferences scheduled on the CPU. Now capture and
// pre-processing stretch, while the app's DSP inference stays flat.
func Figure10(cfg Config) *Result {
	r := multiTenancy(cfg, tflite.DelegateCPU, "fig10",
		"App breakdown vs background CPU inferences")
	r.Notes = append(r.Notes,
		"expected shape: capture+pre grow (CPU contention), inference flat (paper Fig. 10)")
	return r
}

// Figure11 regenerates the paper's Fig. 11: the latency distribution of
// MobileNet v1 classification on the CPU, contrasting the benchmark
// utility's tight distribution with the application's wide one.
func Figure11(cfg Config) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("MobileNet 1.0 v1")
	runs := cfg.Runs * 2
	r := &Result{
		ID:    "fig11",
		Title: "Latency distribution: MobileNet v1 (fp32) on CPU, application vs benchmark",
		Headers: []string{"Form factor", "n", "mean (ms)", "median (ms)",
			"stddev (ms)", "CV", "max dev from median"},
	}

	bench, err := benchToolRun(cfg.Platform, cfg.Seed, m, tensor.Float32, tflite.DelegateCPU, 4, runs, false)
	if err != nil {
		r.Notes = append(r.Notes, "setup failed: "+err.Error())
		return r
	}
	benchSample := stats.NewSample()
	for _, s := range bench {
		benchSample.Add(ms(s.Total))
	}

	frames, err := appRun(cfg.Platform, cfg.Seed+1, m, tensor.Float32, tflite.DelegateCPU, runs, 0, 0)
	if err != nil {
		r.Notes = append(r.Notes, "setup failed: "+err.Error())
		return r
	}
	appSample := stats.NewSample()
	for _, f := range frames {
		appSample.Add(ms(f.Total))
	}

	for _, row := range []struct {
		label string
		s     *stats.Sample
	}{{"benchmark utility", benchSample}, {"application", appSample}} {
		sum := row.s.Summarize()
		r.AddRow(row.label, sum.N, fmt.Sprintf("%.2f", sum.Mean),
			fmt.Sprintf("%.2f", sum.Median), fmt.Sprintf("%.2f", sum.StdDev),
			fmt.Sprintf("%.1f%%", 100*sum.CV),
			fmt.Sprintf("%.1f%%", 100*sum.MaxDevFromMedian))
	}

	r.Blocks = append(r.Blocks,
		"benchmark latency histogram (ms):\n"+stats.HistogramOf(benchSample, 12).Render(40),
		"application latency histogram (ms):\n"+stats.HistogramOf(appSample, 12).Render(40))

	if appSample.CV() > 2*benchSample.CV() {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: app CV %.1f%% >> benchmark CV %.1f%% (paper: up to 30%% deviation from median in apps)",
			100*appSample.CV(), 100*benchSample.CV()))
	} else {
		r.Notes = append(r.Notes, "shape check FAIL: app distribution not wider than benchmark")
	}
	return r
}

// ProbeEffect quantifies §III-D: enabling driver instrumentation adds a
// few percent to hardware-accelerated inference and nothing to CPU runs.
func ProbeEffect(cfg Config) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:      "probe",
		Title:   "Probe effect of driver instrumentation",
		Headers: []string{"Path", "plain (ms)", "instrumented (ms)", "increase"},
	}

	dspPlain, dspProbed := probeRun(cfg, m, true)
	r.AddRow("DSP (SNPE-tuned)", msf(dspPlain), msf(dspProbed),
		fmt.Sprintf("%.1f%%", 100*float64(dspProbed-dspPlain)/float64(dspPlain)))
	cpuPlain, cpuProbed := probeRun(cfg, m, false)
	r.AddRow("CPU (4 threads)", msf(cpuPlain), msf(cpuProbed),
		fmt.Sprintf("%.1f%%", 100*float64(cpuProbed-cpuPlain)/float64(cpuPlain)))

	inc := float64(dspProbed-dspPlain) / float64(dspPlain)
	if inc >= 0.02 && inc <= 0.08 && cpuProbed == cpuPlain {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: %.1f%% on accelerated path, 0%% on CPU (paper: 4-7%% / none)", 100*inc))
	} else {
		r.Notes = append(r.Notes, "shape check FAIL: probe effect out of the 4-7%/0% envelope")
	}
	return r
}
