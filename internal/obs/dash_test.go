package obs

import (
	"strings"
	"testing"
	"time"

	"aitax/internal/core"
)

// seedRecorder replays a tiny deterministic run into a recorder using
// the shared series-name contract, the way the serving bridges do.
func seedRecorder() *Recorder {
	r := NewRecorder(RecorderConfig{Window: 250 * time.Millisecond, Keep: 32})
	model := "MobileNet 1.0 v1"
	for i := 0; i < 40; i++ {
		at := time.Duration(i) * 100 * time.Millisecond
		lat := float64(10 + i%7)
		for _, m := range []string{model, AllModels} {
			r.Add(at, OfferedSeries(m), 1)
			r.Add(at, ServedSeries(m), 1)
			r.Observe(at, LatencySeries(m), lat)
			r.Observe(at, BatchSeries(m), float64(1+i%4))
			r.Observe(at, DepthSeries(m), float64(i%3))
			r.Observe(at, BatchWaitSeries(m), 2.5)
			r.Observe(at, DispatchWaitSeries(m), 0.5)
		}
		r.Add(at, StageSeries(core.StagePre), 1.5)
		r.Add(at, StageSeries(core.StageKernel), 8)
		r.Add(at, StageSeries(core.StagePost), 0.5)
	}
	r.Add(3900*time.Millisecond, RejectedSeries(model), 3)
	r.Add(3900*time.Millisecond, RejectedSeries(AllModels), 3)
	r.Add(3900*time.Millisecond, OfferedSeries(model), 3)
	r.Add(3900*time.Millisecond, OfferedSeries(AllModels), 3)
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
