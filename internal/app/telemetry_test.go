package app

import (
	"testing"
	"time"

	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// newTracedApp builds an app on a runtime with telemetry enabled.
func newTracedApp(t *testing.T, model string, dt tensor.DType, d tflite.Delegate) (*tflite.Runtime, *App) {
	t.Helper()
	rt := tflite.NewStack(soc.Pixel3(), 42)
	rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
	rt.Metrics = telemetry.NewRegistry()
	m, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(rt, Config{Model: m, DType: dt, Delegate: d})
	if err != nil {
		t.Fatal(err)
	}
	return rt, a
}

func TestFrameSpanTreeTilesFrameStats(t *testing.T) {
	const frames = 5
	rt, a := newTracedApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateHexagon)
	sts := runFrames(rt, a, frames)
	spans := rt.Tracer.Spans()
	roots := telemetry.Roots(spans)
	if len(roots) != frames {
		t.Fatalf("root spans = %d, want %d", len(roots), frames)
	}
	stageFor := map[string]func(FrameStats) time.Duration{
		"capture":   func(s FrameStats) time.Duration { return s.Capture },
		"pre":       func(s FrameStats) time.Duration { return s.Pre },
		"inference": func(s FrameStats) time.Duration { return s.Inference },
		"post":      func(s FrameStats) time.Duration { return s.Post },
		"ui":        func(s FrameStats) time.Duration { return s.UI },
	}
	for i, root := range roots {
		if root.Name != "frame" || root.Duration() != sts[i].Total {
			t.Fatalf("frame %d root = %+v, want duration %v", i, root, sts[i].Total)
		}
		kids := telemetry.Children(spans, root.ID)
		if len(kids) != 5 {
			t.Fatalf("frame %d has %d stage children, want 5", i, len(kids))
		}
		var sum time.Duration
		cursor := root.Start
		for _, k := range kids {
			want, ok := stageFor[k.Name]
			if !ok {
				t.Fatalf("unexpected stage span %q", k.Name)
			}
			if k.Duration() != want(sts[i]) {
				t.Fatalf("frame %d stage %s span %v != FrameStats %v",
					i, k.Name, k.Duration(), want(sts[i]))
			}
			if k.Start != cursor {
				t.Fatalf("frame %d stage %s starts at %v, want contiguous %v", i, k.Name, k.Start, cursor)
			}
			cursor = k.End
			sum += k.Duration()
		}
		if sum != sts[i].Total {
			t.Fatalf("frame %d stages sum to %v, FrameStats total %v", i, sum, sts[i].Total)
		}
	}
}

func TestFrameSpansNestFrameworkAndRPC(t *testing.T) {
	rt, a := newTracedApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateHexagon)
	runFrames(rt, a, 2)
	spans := rt.Tracer.Spans()
	byName := map[string][]telemetry.Span{}
	byID := map[int64]telemetry.Span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
		byID[s.ID] = s
	}
	fws := byName["framework"]
	if len(fws) != 2 {
		t.Fatalf("framework spans = %d, want 2", len(fws))
	}
	for _, fw := range fws {
		if byID[fw.Parent].Name != "inference" {
			t.Fatalf("framework span parent = %q, want inference", byID[fw.Parent].Name)
		}
		if fw.Attr("delegate") != "hexagon-delegate" {
			t.Fatalf("framework delegate attr = %q", fw.Attr("delegate"))
		}
	}
	infers := byName["infer"]
	if len(infers) == 0 {
		t.Fatal("no DSP infer spans")
	}
	for _, inf := range infers {
		if inf.Track != telemetry.TrackDSP {
			t.Fatal("infer span off the DSP track")
		}
		if byID[inf.Parent].Name != "framework" {
			t.Fatalf("infer parent = %q, want framework", byID[inf.Parent].Name)
		}
	}
	// Each warm FastRPC round-trip contributes a down→exec and exec→up
	// flow pair crossing the CPU/DSP tracks.
	if len(rt.Tracer.Flows()) < 2 {
		t.Fatalf("flows = %d, want ≥ 2", len(rt.Tracer.Flows()))
	}
	for _, f := range rt.Tracer.Flows() {
		from, to := byID[f.From], byID[f.To]
		if from.Track == to.Track {
			t.Fatalf("flow %q does not cross tracks (%v→%v)", f.Name, from.Track, to.Track)
		}
	}
}

func TestFrameMetricsAggregation(t *testing.T) {
	const frames = 20
	rt, a := newTracedApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateHexagon)
	sts := runFrames(rt, a, frames)
	m := rt.Metrics
	if got := m.Counter("aitax_frames_total"); got != frames {
		t.Fatalf("frames_total = %v", got)
	}
	if got := m.Counter("aitax_gc_pauses_total"); got != 1 {
		t.Fatalf("gc_pauses_total = %v, want 1 in %d frames (period %d)", got, frames, gcPeriod)
	}
	if got := m.Counter("aitax_invocations_total"); got != frames {
		t.Fatalf("invocations_total = %v", got)
	}
	name := telemetry.Labeled("aitax_stage_ms", "stage", "total")
	if m.Count(name) != frames {
		t.Fatalf("stage total observations = %d", m.Count(name))
	}
	// The p50 must be an actual observed frame total.
	p50 := m.Quantile(name, 0.5)
	found := false
	for _, st := range sts {
		if float64(st.Total)/float64(time.Millisecond) == p50 {
			found = true
		}
	}
	if !found {
		t.Fatalf("p50 %v is not an observed frame total", p50)
	}
	if m.Counter("aitax_fastrpc_calls_total") == 0 {
		t.Fatal("fastrpc calls not counted")
	}
}

func TestTracingDoesNotPerturbRun(t *testing.T) {
	run := func(traced bool) []FrameStats {
		rt := tflite.NewStack(soc.Pixel3(), 42)
		if traced {
			rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
			rt.Metrics = telemetry.NewRegistry()
		}
		m, err := models.ByName("MobileNet 1.0 v1")
		if err != nil {
			t.Fatal(err)
		}
		a, err := New(rt, Config{Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateHexagon, Streaming: true})
		if err != nil {
			t.Fatal(err)
		}
		return runFrames(rt, a, 10)
	}
	plain, traced := run(false), run(true)
	for i := range plain {
		if plain[i] != traced[i] {
			t.Fatalf("frame %d differs with tracing on: %+v vs %+v", i, plain[i], traced[i])
		}
	}
}

func TestTextPipelineSpanTree(t *testing.T) {
	rt, a := newTracedApp(t, "Mobile BERT", tensor.Float32, tflite.DelegateCPU)
	sts := runFrames(rt, a, 2)
	roots := telemetry.Roots(rt.Tracer.Spans())
	if len(roots) != 2 {
		t.Fatalf("roots = %d", len(roots))
	}
	for i, root := range roots {
		if root.Duration() != sts[i].Total {
			t.Fatalf("text frame %d root %v != total %v", i, root.Duration(), sts[i].Total)
		}
		if len(telemetry.Children(rt.Tracer.Spans(), root.ID)) != 5 {
			t.Fatal("text frame missing stage children")
		}
	}
}
