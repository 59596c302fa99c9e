package serve

import (
	"context"
	"testing"
	"time"

	"aitax/internal/app"
	taxcore "aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// tracedBatchSplit reruns MeasureBatch's simulation for (m, k) with a
// tracer attached and prices its FastRPC calls from their spans alone:
// rpc is the session-setup spans plus each call's rpc-down start to
// rpc-up end less its DSP hold, exec the DSP spans. It also returns the
// run's summed inference-stage spans, which tie the rerun to the
// measured one.
func tracedBatchSplit(t *testing.T, cfg Config, m *models.Model, k int) (rpc, exec, infer time.Duration) {
	t.Helper()
	rt := tflite.NewStack(cfg.Platform, batchSeed(cfg.Seed, m.Name, k))
	rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
	a, err := app.New(rt, app.Config{Model: m, DType: cfg.DType, Delegate: cfg.Delegate})
	if err != nil {
		t.Fatal(err)
	}
	a.Init(func() {
		var next func(i int)
		next = func(i int) {
			if i < k {
				a.ProcessRange(cfg.Entry, taxcore.StagePost, func(taxcore.StageTimes) { next(i + 1) })
			}
		}
		next(0)
	})
	rt.Eng.Run()
	var downs []telemetry.Span
	for _, s := range rt.Tracer.Spans() {
		switch {
		case s.Name == taxcore.StageInference.String() && s.Component == "app":
			infer += s.Duration()
		case s.Component != "fastrpc":
		case s.Name == "rpc-setup":
			rpc += s.Duration()
		case s.Name == "rpc-down":
			downs = append(downs, s)
		case s.Name == "rpc-up":
			// Calls on one stack run one at a time, so the i-th
			// rpc-up closes the i-th rpc-down.
			rpc += s.End.Sub(downs[0].Start)
			downs = downs[1:]
		case s.Track == telemetry.TrackDSP:
			exec += s.Duration()
		}
	}
	if len(downs) != 0 {
		t.Fatalf("%d rpc-down spans without an rpc-up", len(downs))
	}
	return rpc - exec, exec, infer
}

// TestMeasureBatchSplitMatchesFastRPCSpans checks that a batch's RPC and
// Exec are exactly what its FastRPC calls took by their spans — session
// setup, transport with its cache flush, and queue, each counted once —
// and that framework + rpc + kernel is the inference stage with nothing
// clamped. The NNAPI EfficientNet-Lite0 plan falls back to the
// reference CPU after a one-time DSP graph probe, which counts too.
func TestMeasureBatchSplitMatchesFastRPCSpans(t *testing.T) {
	p, err := soc.PlatformByName("Google Pixel 3")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		delegate tflite.Delegate
		model    string
	}{
		{tflite.DelegateHexagon, "MobileNet 1.0 v1"},
		{tflite.DelegateNNAPI, "MobileNet 1.0 v1"},
		{tflite.DelegateNNAPI, "EfficientNet-Lite0"},
	} {
		m, err := models.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Platform: p, DType: tensor.UInt8, Delegate: c.delegate,
			Models: []*models.Model{m}, Entry: taxcore.StagePre, Seed: 42}.Defaults()
		for _, k := range []int{1, 4} {
			bc, err := MeasureBatch(context.Background(), cfg, m, k)
			if err != nil {
				t.Fatal(err)
			}
			rpc, exec, infer := tracedBatchSplit(t, cfg, m, k)
			sum := bc.Sum
			name := c.delegate.String() + "/" + c.model
			if sum.Stage[taxcore.StageInference] != infer {
				t.Fatalf("%s k=%d: inference %v, traced rerun %v", name, k, sum.Stage[taxcore.StageInference], infer)
			}
			if rpc <= 0 || exec <= 0 {
				t.Fatalf("%s k=%d: traced rerun made no FastRPC call (rpc %v, exec %v)", name, k, rpc, exec)
			}
			if sum.RPC != rpc || sum.Exec != exec {
				t.Errorf("%s k=%d: split rpc %v exec %v, FastRPC spans rpc %v exec %v", name, k, sum.RPC, sum.Exec, rpc, exec)
			}
			if sum.Stage[taxcore.StageInference] < sum.RPC+sum.Exec {
				t.Errorf("%s k=%d: rpc %v + exec %v exceed inference %v", name, k, sum.RPC, sum.Exec, sum.Stage[taxcore.StageInference])
			}
			if got := sum.Of(taxcore.StageFramework) + sum.Of(taxcore.StageRPC) + sum.Of(taxcore.StageKernel); got != sum.Stage[taxcore.StageInference] {
				t.Errorf("%s k=%d: framework + rpc + kernel = %v, inference %v", name, k, got, sum.Stage[taxcore.StageInference])
			}
		}
	}
}

// TestCostTableHitDoesNotAllocate pins the table's read path, which
// prices every HTTP batch after the first of its key: a present entry
// comes back without allocating. A cancelled measurement stores nothing.
func TestCostTableHitDoesNotAllocate(t *testing.T) {
	cfg := testConfig(t)
	m := cfg.Models[0]
	table := newCostTable()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := table.entry(cancelled, cfg, m, 1, false); err == nil || len(table.entries) != 0 {
		t.Fatalf("cancelled measurement: err %v, %d entries stored", err, len(table.entries))
	}
	ctx := context.Background()
	want, err := table.entry(ctx, cfg, m, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if got, err := table.entry(ctx, cfg, m, 1, false); err != nil || got != want {
			t.Fatalf("hit returned %+v, %v; want %+v", got, err, want)
		}
	})
	if allocs != 0 {
		t.Fatalf("cost-table hit: %v allocs/op, want 0", allocs)
	}
}
