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

// maxBG is the most background jobs Figs. 9 and 10 run.
const maxBG = 4

// multiTenancy tabulates the stage means of the classification app with
// 0..maxBG background inference jobs on the given delegate.
func multiTenancy(cfg Config, p *Planner, bgDelegate tflite.Delegate, id, title, shape string) func() *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	var samples []*Sample
	for n := 0; n <= maxBG; n++ {
		samples = append(samples, p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, DType: tensor.UInt8,
			Delegate: tflite.DelegateNNAPI, N: max(cfg.Runs/2, 8), BGJobs: n, BGDelegate: bgDelegate}, m))
	}
	return func() *Result {
		r := &Result{
			ID:    id,
			Title: title,
			Headers: []string{"Background jobs", "capture (ms)", "pre (ms)",
				"inference (ms)", "post (ms)", "total (ms)"},
		}
		var inf0, infN, capPre0, capPreN time.Duration
		var xs, ys []float64
		for n, smp := range samples {
			if smp.Err != nil {
				r.Notes = append(r.Notes, "setup failed: "+smp.Err.Error(), shape)
				return r
			}
			st := smp.Mean.Stage
			r.AddRow(n, msf(st[core.StageCapture]), msf(st[core.StagePre]), msf(st[core.StageInference]),
				msf(st[core.StagePost]), msf(smp.Mean.Total))
			xs = append(xs, float64(n))
			ys = append(ys, ms(st[core.StageInference]))
			if n == 0 {
				inf0, capPre0 = st[core.StageInference], st[core.StageCapture]+st[core.StagePre]
			}
			if n == maxBG {
				infN, capPreN = st[core.StageInference], st[core.StageCapture]+st[core.StagePre]
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
		r.Notes = append(r.Notes, shape)
		return r
	}
}

// Figure9 regenerates the paper's Fig. 9: latency breakdown of the image
// classification app while increasingly many background inferences run
// through the NNAPI Hexagon path. Inference stalls on the single DSP;
// capture and pre-processing stay approximately constant.
func Figure9(cfg Config, p *Planner) func() *Result {
	return multiTenancy(cfg, p, tflite.DelegateHexagon, "fig9",
		"App breakdown vs background NNAPI(DSP) inferences",
		"expected shape: inference grows ~linearly (one DSP), capture+pre flat (paper Fig. 9)")
}

// Figure10 regenerates the paper's Fig. 10: the same experiment with the
// background inferences scheduled on the CPU. Now capture and
// pre-processing stretch, while the app's DSP inference stays flat.
func Figure10(cfg Config, p *Planner) func() *Result {
	return multiTenancy(cfg, p, tflite.DelegateCPU, "fig10",
		"App breakdown vs background CPU inferences",
		"expected shape: capture+pre grow (CPU contention), inference flat (paper Fig. 10)")
}

// Figure11 regenerates the paper's Fig. 11: the latency distribution of
// MobileNet v1 classification on the CPU, contrasting the benchmark
// utility's tight distribution with the application's wide one.
func Figure11(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	runs := cfg.Runs * 2
	samples := []*Sample{
		p.tool(HarnessTool, cfg.Platform.Name, cfg.Seed, m, tensor.Float32, tflite.DelegateCPU, 4, runs),
		p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed + 1, DType: tensor.Float32, Delegate: tflite.DelegateCPU, N: runs}, m),
	}
	return func() *Result {
		r := &Result{
			ID:    "fig11",
			Title: "Latency distribution: MobileNet v1 (fp32) on CPU, application vs benchmark",
			Headers: []string{"Form factor", "n", "mean (ms)", "median (ms)",
				"stddev (ms)", "CV", "max dev from median"},
		}

		var dists [2]*stats.Sample
		for i, smp := range samples {
			if smp.Err != nil {
				r.Notes = append(r.Notes, "setup failed: "+smp.Err.Error())
				return r
			}
			dists[i] = stats.NewSample()
			for _, t := range smp.Totals {
				dists[i].Add(ms(t))
			}
		}
		benchSample, appSample := dists[0], dists[1]

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
}

// ProbeEffect quantifies §III-D: enabling driver instrumentation adds a
// few percent to hardware-accelerated inference and nothing to CPU runs.
func ProbeEffect(cfg Config) *Result {
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
