package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"aitax/internal/bench"
	"aitax/internal/models"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
	"aitax/internal/tflite"
	"aitax/internal/trace"
)

// runProfile is aitax profile: it renders Snapdragon-Profiler-style
// execution timelines (per-core utilization, DSP occupancy, migrations)
// for one model/delegate configuration — the Fig. 6 view.
//
//	aitax profile -model "EfficientNet-Lite0" -dtype int8 -delegate nnapi
//	aitax profile -delegate hexagon -trace out.json -metrics out.prom
func runProfile(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("profile", stderr)
	run := bindRun(fs, "EfficientNet-Lite0", "int8", "nnapi", false)
	horizonMS := fs.Int("horizon", 600, "profile window in virtual milliseconds")
	bucketMS := fs.Float64("bucket", 2, "timeline bucket in milliseconds")
	common := register(fs, sharedFlags{Trace: true, Metrics: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// NaN fails both comparisons, so it is rejected with the infinities.
	bucketNS := *bucketMS * float64(time.Millisecond)
	if !(bucketNS >= 1 && bucketNS < math.MaxInt64) {
		return fail(stderr, fmt.Errorf("-bucket %v: want a finite bucket of at least 1ns", *bucketMS))
	}
	if maxMS := int64(math.MaxInt64 / time.Millisecond); *horizonMS <= 0 || int64(*horizonMS) > maxMS {
		return fail(stderr, fmt.Errorf("-horizon %d: want a positive window of at most %d ms", *horizonMS, maxMS))
	}
	opts, err := run.options()
	if err != nil {
		return fail(stderr, err)
	}
	m, err := models.ByName(opts.Model)
	if err != nil {
		return fail(stderr, err)
	}

	// The run injects no faults, so its stack cannot fail.
	r := bench.Run{Platform: opts.Platform.Name, Seed: opts.Seed, Model: m.Name, DType: opts.DType, Delegate: opts.Delegate}
	rt, _ := r.Stack(opts.Platform)
	// Telemetry is nil-safe and perturbation-free, so it is switched on
	// only when an export asks for it; the timeline itself is identical
	// either way.
	if common.Trace != "" || common.Metrics != "" {
		rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
		rt.Metrics = telemetry.NewRegistry()
	}
	prof := trace.NewProfiler(rt.Eng, time.Duration(bucketNS))
	prof.Attach(rt.Sch)
	var chrome *trace.ChromeRecorder
	if common.Trace != "" {
		chrome = trace.NewChromeRecorder()
		chrome.Attach(rt.Sch)
	}
	prof.TrackResource("cdsp", rt.DSP)
	prof.TrackResource("gpu", rt.GPUQueue)

	ip, err := rt.NewInterpreter(m, r.DType, tflite.Options{Delegate: r.Delegate})
	if err != nil {
		return fail(stderr, err)
	}

	horizon := time.Duration(*horizonMS) * time.Millisecond
	invocations := 0
	ip.Init(func() {
		prof.StartSampling(horizon)
		ip.InvokeWhile(func(int) bool { return rt.Eng.Now().Duration() < horizon },
			func(tflite.Report, time.Duration) { invocations++ })
	})
	rt.Eng.RunUntil(sim.Time(0).Add(horizon))

	fmt.Fprintf(stdout, "profile: model=%q dtype=%s delegate=%s platform=%q window=%v\n",
		opts.Model, opts.DType, opts.Delegate, opts.Platform.Name, horizon)
	fmt.Fprintf(stdout, "completed invocations in window: %d\n\n", invocations)
	fmt.Fprint(stdout, prof.Render())

	if chrome != nil {
		spans, flows := rt.Tracer.Spans(), rt.Tracer.Flows()
		chrome.AddTelemetry(spans, flows)
		chrome.AddSpanOccupancy("dsp in flight", spans, telemetry.TrackDSP)
		chrome.AddSpanOccupancy("gpu in flight", spans, telemetry.TrackGPU)
		chrome.AddFaultCounters(rt.Metrics, rt.Eng.Now())
		if err := writeFile(common.Trace, chrome.WriteJSON); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "chrome trace written to %s (open in chrome://tracing or ui.perfetto.dev)\n", common.Trace)
	}
	if common.Metrics != "" {
		if err := writeFile(common.Metrics, rt.Metrics.WritePrometheus); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "metrics written to %s\n", common.Metrics)
	}
	return 0
}
