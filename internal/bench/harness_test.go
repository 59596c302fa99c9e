package bench_test

import (
	"context"
	"reflect"
	"testing"

	"aitax"
	"aitax/internal/bench"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// TestAppRunMatchesMeasureAppFrames checks harness agreement: an
// application Run measures exactly the frames the public
// aitax.MeasureAppFrames returns for the same configuration, with and
// without background tenants.
func TestAppRunMatchesMeasureAppFrames(t *testing.T) {
	const seed, frames = 43, 5
	for _, c := range []struct {
		model    string
		dt       tensor.DType
		delegate tflite.Delegate
		bg       int
	}{
		{"MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, 0},
		{"Inception v3", tensor.Float32, tflite.DelegateCPU, 0},
		{"MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, 2},
	} {
		m, err := models.ByName(c.model)
		if err != nil {
			t.Fatal(err)
		}
		p := soc.Pixel3()
		r := bench.Run{Platform: p.Name, Seed: seed, Model: m.Name, DType: c.dt, Delegate: c.delegate, N: frames,
			Harness: bench.HarnessApp, BGJobs: c.bg, BGDelegate: tflite.DelegateHexagon}
		got, err := r.Frames(context.Background(), m, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := aitax.MeasureAppFrames(aitax.AppOptions{
			Model: c.model, DType: c.dt, Delegate: c.delegate, Frames: frames, WarmupFrames: 2,
			Platform: soc.Pixel3(), Seed: seed, SeedSet: true,
			BackgroundJobs: c.bg, BackgroundDelegate: tflite.DelegateHexagon,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != frames || !reflect.DeepEqual(got, want) {
			t.Errorf("%s %s %s +%d: Run measured\n%+v\nMeasureAppFrames\n%+v", c.model, c.dt, c.delegate, c.bg, got, want)
		}
	}
}
