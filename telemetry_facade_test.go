package aitax_test

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"aitax"
)

func tracedOpts() aitax.AppOptions {
	return aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.UInt8,
		Delegate: aitax.DelegateHexagon,
		Frames:   8, WarmupFrames: -1,
	}
}

func TestMeasureAppTracedMatchesUntraced(t *testing.T) {
	plain, err := aitax.MeasureAppFrames(tracedOpts())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := aitax.MeasureAppTraced(tracedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Frames) != len(plain) {
		t.Fatalf("traced frames = %d, untraced %d", len(tr.Frames), len(plain))
	}
	for i := range plain {
		if tr.Frames[i] != plain[i] {
			t.Fatalf("frame %d differs with tracing on: %+v vs %+v", i, tr.Frames[i], plain[i])
		}
	}
}

func TestMeasureAppTracedSpanTreeAndExports(t *testing.T) {
	tr, err := aitax.MeasureAppTraced(tracedOpts())
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, s := range tr.Spans {
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != len(tr.Frames) {
		t.Fatalf("%d root spans for %d frames", roots, len(tr.Frames))
	}
	if len(tr.Flows) == 0 {
		t.Fatal("hexagon run produced no cross-track flows")
	}
	if got := tr.Metrics.Counter("aitax_frames_total"); got != float64(len(tr.Frames)) {
		t.Fatalf("frames_total = %v", got)
	}
	if tr.Metrics.Counter("aitax_sched_context_switches_total") != float64(tr.ContextSwitches) {
		t.Fatal("context switches not mirrored into metrics")
	}
	var chrome, prom bytes.Buffer
	if err := tr.Chrome.WriteJSON(&chrome); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(chrome.String(), `"traceEvents"`) {
		t.Fatal("chrome export malformed")
	}
	if err := tr.Metrics.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), `aitax_stage_ms_p99{stage="total"}`) {
		t.Fatalf("metrics export missing stage quantiles:\n%s", prom.String())
	}
}

func TestMeasureAppTracedInsideLabReportsBundle(t *testing.T) {
	l := &aitax.Lab{Parallelism: 1}
	rs := l.Run(context.Background(), []aitax.Job{{
		ID: "traced",
		Run: func(ctx context.Context) (any, error) {
			return aitax.MeasureAppTracedCtx(ctx, tracedOpts())
		},
	}})
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	bundle := aitax.MergeJobTelemetry(rs)
	if len(bundle.Spans) == 0 || bundle.Registry.Counter("aitax_frames_total") != 8 {
		t.Fatalf("job did not report its telemetry bundle: %d spans", len(bundle.Spans))
	}
}

func TestProbeOverheadOption(t *testing.T) {
	opts := tracedOpts()
	measure := func(probe float64) aitax.Breakdown {
		o := opts
		o.ProbeOverhead = probe
		b, err := aitax.MeasureApp(o)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	base, probed := measure(0), measure(0.07)
	if pi, bi := probed.Mean.Stage[aitax.StageInference], base.Mean.Stage[aitax.StageInference]; pi <= bi {
		t.Fatalf("7%% probe did not slow inference: %v vs %v", pi, bi)
	}

	o := opts
	o.ProbeOverhead = 0.5
	if _, err := aitax.MeasureApp(o); err == nil || !strings.Contains(err.Error(), "ProbeOverhead") {
		t.Fatalf("out-of-range probe accepted: %v", err)
	}
	o.ProbeOverhead = 0.05
	o.Delegate = aitax.DelegateNNAPI
	if _, err := aitax.MeasureApp(o); err == nil || !strings.Contains(err.Error(), "NNAPI") {
		t.Fatalf("NNAPI probe accepted: %v", err)
	}
}

func TestModelAliasFacade(t *testing.T) {
	m, err := aitax.ModelByName("MobileNetV1")
	if err != nil || m.Name != "MobileNet 1.0 v1" {
		t.Fatalf("alias lookup: %v, %v", m, err)
	}
}
