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
// without background tenants, and under the fault experiment's flaky
// FastRPC and thermal-trip plans.
func TestAppRunMatchesMeasureAppFrames(t *testing.T) {
	const seed, frames = 43, 5
	for _, c := range []struct {
		model    string
		dt       tensor.DType
		delegate tflite.Delegate
		bg       int
		plan     faults.Plan
	}{
		{"MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, 0, faults.Plan{}},
		{"Inception v3", tensor.Float32, tflite.DelegateCPU, 0, faults.Plan{}},
		{"MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, 2, faults.Plan{}},
		{"MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateHexagon, 0, faults.Plan{RPCTimeoutRate: 0.2, Deadline: 8 * time.Millisecond}},
		{"MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateHexagon, 0, faults.Plan{ThermalTripAt: 150 * time.Millisecond}},
	} {
		m, err := models.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		p := soc.Pixel3()
		r := bench.Run{Platform: p.Name, Seed: seed, Model: m.Name, DType: c.dt, Delegate: c.delegate, N: frames,
			Harness: bench.HarnessApp, BGJobs: c.bg, BGDelegate: tflite.DelegateHexagon, Faults: c.plan}
		got, _, err := r.Frames(context.Background(), m, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := aitax.MeasureAppFrames(aitax.AppOptions{
			Model: c.model, DType: c.dt, Delegate: c.delegate, Frames: frames, WarmupFrames: 2,
			Platform: soc.Pixel3(), Seed: seed, SeedSet: true,
			BackgroundJobs: c.bg, BackgroundDelegate: tflite.DelegateHexagon, Faults: c.plan,
		})
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
			t.Errorf("%s %s %s +%d %+v: Run measured\n%+v\nMeasureAppFrames\n%+v", c.model, c.dt, c.delegate, c.bg, c.plan, got, want)
		}
	}
}
