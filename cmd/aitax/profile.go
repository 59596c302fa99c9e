package main

import (
	"fmt"
	"io"
	"time"

	"aitax"
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
	model := fs.String("model", "EfficientNet-Lite0", "Table-I model name")
	dtype := fs.String("dtype", "int8", "precision: fp32 | int8")
	delegate := fs.String("delegate", "nnapi", "delegate: cpu | gpu | hexagon | nnapi")
	horizonMS := fs.Int("horizon", 600, "profile window in virtual milliseconds")
	bucketMS := fs.Float64("bucket", 2, "timeline bucket in milliseconds")
	platform := fs.String("platform", "Google Pixel 3", "platform (Table II)")
	seed := fs.Uint64("seed", 42, "random seed")
	common := register(fs, sharedFlags{Trace: true, Metrics: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	dt, err := parseDType(*dtype)
	if err != nil {
		return fail(stderr, err)
	}
	d, err := parseDelegate(*delegate)
	if err != nil {
		return fail(stderr, err)
	}

	p, err := aitax.PlatformByName(*platform)
	if err != nil {
		return fail(stderr, err)
	}
	m, err := models.ByName(*model)
	if err != nil {
		return fail(stderr, err)
	}

	rt := tflite.NewStack(p, *seed)
	// Telemetry is nil-safe and perturbation-free, so it is switched on
	// only when an export asks for it; the timeline itself is identical
	// either way.
	if common.Trace != "" || common.Metrics != "" {
		rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
		rt.Metrics = telemetry.NewRegistry()
	}
	prof := trace.NewProfiler(rt.Eng, time.Duration(*bucketMS*float64(time.Millisecond)))
	prof.Attach(rt.Sch)
	var chrome *trace.ChromeRecorder
	if common.Trace != "" {
		chrome = trace.NewChromeRecorder()
		chrome.Attach(rt.Sch)
	}
	prof.TrackResource("cdsp", rt.DSP)
	prof.TrackResource("gpu", rt.GPUQueue)

	ip, err := rt.NewInterpreter(m, dt, tflite.Options{Delegate: d})
	if err != nil {
		return fail(stderr, err)
	}

	horizon := time.Duration(*horizonMS) * time.Millisecond
	invocations := 0
	ip.Init(func() {
		prof.StartSampling(horizon)
		var loop func()
		loop = func() {
			if rt.Eng.Now().Duration() >= horizon {
				return
			}
			ip.Invoke(func(tflite.Report) {
				invocations++
				loop()
			})
		}
		loop()
	})
	rt.Eng.RunUntil(sim.Time(0).Add(horizon))

	fmt.Fprintf(stdout, "profile: model=%q dtype=%s delegate=%s platform=%q window=%v\n",
		*model, dt, d, p.Name, horizon)
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
