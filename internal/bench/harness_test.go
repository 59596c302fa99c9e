package bench_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"aitax"
	"aitax/internal/bench"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// TestAppRunMatchesMeasureAppFrames checks harness agreement: an
// application Run measures exactly the frames the public
// aitax.MeasureAppFrames returns for the same configuration, with and
// without background tenants, under the fault experiment's flaky
// FastRPC and thermal-trip plans, with the probe effect and with warmup
// disabled; a benchmark-utility Run measures exactly the samples
// aitax.MeasureBenchmark returns, on either C++ standard library.
func TestAppRunMatchesMeasureAppFrames(t *testing.T) {
	const seed, frames = 43, 5
	for _, c := range []struct {
		model    string
		dt       tensor.DType
		delegate tflite.Delegate
		bg       int
		plan     faults.Plan
		tool     bool          // HarnessTool against MeasureBenchmark
		warmup   int           // AppOptions.WarmupFrames; the Run's Warmup is 2 at 0, 0 below it
		probe    float64       // ProbeOverhead
		lib      tflite.StdLib // the benchmark utility's StdLib
	}{
		{model: "MobileNet 1.0 v1", dt: tensor.UInt8, delegate: tflite.DelegateNNAPI},
		{model: "Inception v3", dt: tensor.Float32, delegate: tflite.DelegateCPU},
		{model: "MobileNet 1.0 v1", dt: tensor.UInt8, delegate: tflite.DelegateNNAPI, bg: 2},
		{model: "MobileNet 1.0 v1", dt: tensor.UInt8, delegate: tflite.DelegateHexagon, plan: faults.Plan{RPCTimeoutRate: 0.2, Deadline: 8 * time.Millisecond}},
		{model: "MobileNet 1.0 v1", dt: tensor.UInt8, delegate: tflite.DelegateHexagon, plan: faults.Plan{ThermalTripAt: 150 * time.Millisecond}},
		{model: "MobileNet 1.0 v1", dt: tensor.Float32, delegate: tflite.DelegateCPU, tool: true, lib: tflite.LibStdCXX},
		{model: "MobileNet 1.0 v1", dt: tensor.UInt8, delegate: tflite.DelegateHexagon, probe: 0.05},
		{model: "MobileNet 1.0 v1", dt: tensor.UInt8, delegate: tflite.DelegateNNAPI, warmup: -1},
	} {
		m, err := models.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		p := soc.Pixel3()
		r := bench.Run{Platform: p.Name, Seed: seed, Model: m.Name, DType: c.dt, Delegate: c.delegate, N: frames,
			Harness: bench.HarnessApp, Warmup: 2, BGJobs: c.bg, BGDelegate: tflite.DelegateHexagon,
			Probe: c.probe, Faults: c.plan}
		opts := aitax.AppOptions{
			Model: c.model, DType: c.dt, Delegate: c.delegate, Frames: frames, WarmupFrames: c.warmup,
			Platform: soc.Pixel3(), Seed: seed, SeedSet: true,
			BackgroundJobs: c.bg, BackgroundDelegate: tflite.DelegateHexagon, ProbeOverhead: c.probe, Faults: c.plan,
		}
		if c.warmup < 0 {
			r.Warmup = 0
		}
		measure := aitax.MeasureAppFrames
		if c.tool {
			r = bench.Run{Platform: p.Name, Seed: seed, Model: m.Name, DType: c.dt, Delegate: c.delegate, Threads: 4, N: frames,
				Harness: bench.HarnessTool, StdLib: c.lib}
			opts.StdLib, opts.BackgroundDelegate = c.lib, 0
			measure = aitax.MeasureBenchmark
		}
		got, _, err := r.Frames(context.Background(), m, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := measure(opts)
		if err != nil {
			t.Fatal(err)
		}
		var recovery time.Duration
		for _, st := range got {
			recovery += st.Retry + st.Fallback
		}
		if c.plan.Enabled() && recovery == 0 {
			t.Errorf("%s %+v: no frame paid for fault recovery; the comparison is vacuous", c.model, c.plan)
		}
		if len(got) != frames || !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: Run measured\n%+v\nthe facade\n%+v", r, got, want)
		}
	}
}
