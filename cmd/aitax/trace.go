package main

import (
	"fmt"
	"io"

	"aitax"
	"aitax/internal/core"
	"aitax/internal/telemetry"
)

// runTrace is aitax trace: it runs the instrumented application
// pipeline with the telemetry layer switched on and exports the run as a
// unified Chrome/Perfetto trace (scheduler slices + pipeline span tree +
// FastRPC flow arrows + accelerator counter tracks), a Prometheus-style
// metrics file, and/or a JSONL span log. Stdout gets a deterministic
// per-stage latency summary with exact p50/p90/p99.
//
//	aitax trace -model MobileNetV1 -delegate hexagon -frames 20 \
//	    -trace out.json -metrics out.prom
//	aitax trace -model "Mobile BERT" -dtype fp32 -delegate cpu -jsonl spans.jsonl
//	aitax trace -delegate hexagon -probe 0.05   # with the §III-C probe effect
func runTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("trace", stderr)
	run := bindRun(fs, "MobileNet 1.0 v1", "int8", "hexagon", true)
	frames := fs.Int("frames", 20, "measured frames")
	probe := fs.Float64("probe", 0, "probe-effect overhead fraction on accelerators (paper §III-C: 0.04–0.07)")
	jsonlPath := fs.String("jsonl", "", "write one JSON span per line to this path")
	common := register(fs, sharedFlags{Trace: true, Metrics: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	opts, err := run.options()
	if err != nil {
		return fail(stderr, err)
	}
	// WarmupFrames -1: a trace wants every frame it records measured —
	// cold start included — so counts line up with -frames exactly.
	opts.Frames, opts.WarmupFrames, opts.ProbeOverhead = *frames, -1, *probe
	tr, err := aitax.MeasureAppTraced(opts)
	if err != nil {
		return fail(stderr, err)
	}

	writeSummary(stdout, tr, opts)

	for _, out := range []struct {
		path  string
		what  string
		write func(io.Writer) error
	}{
		{common.Trace, "chrome trace (open in ui.perfetto.dev or chrome://tracing)", tr.Chrome.WriteJSON},
		{common.Metrics, "metrics", tr.Metrics.WritePrometheus},
		{*jsonlPath, "span log", func(w io.Writer) error { return telemetry.WriteSpansJSONL(w, tr.Spans) }},
	} {
		if out.path == "" {
			continue
		}
		if err := writeFile(out.path, out.write); err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "wrote %s to %s\n", out.what, out.path)
	}
	return 0
}

// writeSummary prints the deterministic per-stage quantile table and the
// run's scheduler/RPC totals.
func writeSummary(w io.Writer, tr *aitax.TraceRun, o aitax.AppOptions) {
	fmt.Fprintf(w, "trace: model=%q dtype=%s delegate=%s platform=%q frames=%d\n\n",
		o.Model, o.DType, o.Delegate, o.Platform.Name, o.Frames)
	fmt.Fprintf(w, "%-10s %7s %10s %10s %10s\n", "stage", "count", "p50 ms", "p90 ms", "p99 ms")
	m := tr.Metrics
	row := func(stage string) {
		name := telemetry.Labeled("aitax_stage_ms", "stage", stage)
		fmt.Fprintf(w, "%-10s %7d %10.4f %10.4f %10.4f\n", stage,
			m.Count(name), m.Quantile(name, 0.50), m.Quantile(name, 0.90), m.Quantile(name, 0.99))
	}
	for s := core.StageCapture; s < core.NumStages; s++ {
		row(s.String())
	}
	row("total")
	fmt.Fprintf(w, "\nai tax per frame:  p50 %.4fms  p90 %.4fms  p99 %.4fms\n",
		m.Quantile("aitax_frame_tax_ms", 0.50),
		m.Quantile("aitax_frame_tax_ms", 0.90),
		m.Quantile("aitax_frame_tax_ms", 0.99))
	if calls := m.Counter("aitax_fastrpc_calls_total"); calls > 0 {
		fmt.Fprintf(w, "fastrpc: %.0f calls  transport p50 %.4fms  queue p50 %.4fms  exec p50 %.4fms\n",
			calls,
			m.Quantile("aitax_fastrpc_transport_ms", 0.50),
			m.Quantile("aitax_fastrpc_queue_ms", 0.50),
			m.Quantile("aitax_fastrpc_exec_ms", 0.50))
	}
	fmt.Fprintf(w, "spans %d  flows %d  migrations %d  context switches %d\n",
		len(tr.Spans), len(tr.Flows), tr.Migrations, tr.ContextSwitches)
}
