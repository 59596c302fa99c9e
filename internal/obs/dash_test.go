package obs

import (
	"strings"
	"testing"
	"time"

	"aitax/internal/core"
	"aitax/internal/telemetry"
)

// seedRecorder replays a tiny deterministic run into a recorder using
// the shared series-name contract, the way the serving bridges do.
func seedRecorder() *Recorder {
	r := NewRecorder(RecorderConfig{Window: 250 * time.Millisecond, Keep: 32})
	model := "MobileNet 1.0 v1"
	stageMS := map[core.Stage]float64{core.StagePre: 1.5, core.StageKernel: 8, core.StagePost: 0.5}
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		lat := float64(10 + i%7)
		for _, m := range []string{model, AllModels} {
			s := SeriesFor(m)
			r.Add(at, s.Offered, 1)
			r.Add(at, s.Served, 1)
			r.Observe(at, s.Latency, lat)
			r.Observe(at, s.Batch, float64(1+i%4))
			r.Observe(at, s.Depth, float64(i%3))
			r.Observe(at, s.BatchWait, 2.5)
			r.Observe(at, s.DispatchWait, 0.5)
		}
		for i, st := range Stages {
			if v, ok := stageMS[st]; ok {
				r.Add(at, StageSeries[i], v)
			}
		}
	}
	mobilenet, all := SeriesFor(model), SeriesFor(AllModels)
	r.Add(3900*time.Millisecond, mobilenet.Rejected, 3)
	r.Add(3900*time.Millisecond, all.Rejected, 3)
	r.Add(3900*time.Millisecond, mobilenet.Offered, 3)
	r.Add(3900*time.Millisecond, all.Offered, 3)
	return r
}

func TestDashboardRenderDeterministic(t *testing.T) {
	render := func() string {
		rec := seedRecorder()
		obj := Objective{Model: "MobileNet 1.0 v1", Latency: 250 * time.Millisecond, Target: 0.99}
		mon := NewMonitor([]Objective{obj}, rec.Window())
		feed(mon, obj, 0, 8, 40, 0)
		d := &Dashboard{Rec: rec, Mon: mon, Models: []string{"MobileNet 1.0 v1"}}
		return d.Render(4 * time.Second)
	}
	first := render()
	if first != render() {
		t.Fatal("dashboard render not deterministic")
	}
	for _, want := range []string{
		"aitax-serve", "model", "MobileNet 1.0 v1", "all",
		"tax anatomy ms/req:", "pre", "infer", "batch-wait",
		"p99 trend", "slo MobileNet 1.0 v1", "OK",
	} {
		if !strings.Contains(first, want) {
			t.Fatalf("dashboard missing %q:\n%s", want, first)
		}
	}
	// The trend line must contain sparkline glyphs, and the rej% column
	// must reflect the final window's rejections.
	if !strings.ContainsAny(first, "▁▂▃▄▅▆▇█") {
		t.Fatalf("no sparkline in dashboard:\n%s", first)
	}
}

func TestDashboardEmptyRecorder(t *testing.T) {
	d := &Dashboard{Rec: NewRecorder(RecorderConfig{})}
	out := d.Render(0)
	if !strings.Contains(out, "all") {
		t.Fatalf("empty dashboard should still print the aggregate row:\n%s", out)
	}
}

// SeriesFor renders each name exactly as telemetry.Labeled does, model
// names that need escaping included, and StageSeries parallels Stages.
func TestSeriesForMatchesLabeled(t *testing.T) {
	for _, model := range []string{"MobileNet 1.0 v1", AllModels, `quote"d`, `back\slash`, "new\nline"} {
		s := SeriesFor(model)
		for _, c := range []struct{ got, base string }{
			{s.Latency, "latency_ms"},
			{s.Offered, "offered"},
			{s.Served, "served"},
			{s.Rejected, "rejected"},
			{s.Shed, "shed"},
			{s.Cancelled, "cancelled"},
			{s.Batch, "batch"},
			{s.Depth, "depth"},
			{s.BatchWait, "batch_wait_ms"},
			{s.DispatchWait, "dispatch_wait_ms"},
		} {
			if want := telemetry.Labeled(c.base, "model", model); c.got != want {
				t.Errorf("SeriesFor(%q) %s = %q, want %q", model, c.base, c.got, want)
			}
		}
	}
	if len(StageSeries) != len(Stages) {
		t.Fatalf("%d stage series for %d stages", len(StageSeries), len(Stages))
	}
	for i, st := range Stages {
		if want := telemetry.Labeled("stage_ms", "stage", st.String()); StageSeries[i] != want {
			t.Errorf("StageSeries[%d] = %q, want %q", i, StageSeries[i], want)
		}
	}
}
