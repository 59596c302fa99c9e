package app

import (
	"context"
	"reflect"
	"testing"
	"time"

	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func TestBackgroundJobsRun(t *testing.T) {
	rt := tflite.NewStack(soc.Pixel3(), 1)
	m, _ := models.ByName("MobileNet 1.0 v1")
	bg, err := startTenants(rt, m, tensor.UInt8, tflite.DelegateCPU, 2)
	if err != nil {
		t.Fatal(err)
	}
	rt.Eng.After(200*time.Millisecond, func() { bg.stopped = true })
	rt.Eng.Run()
	if bg.completed == 0 {
		t.Fatal("no background inferences completed")
	}
	if bg.jobs != 2 {
		t.Fatalf("jobs = %d", bg.jobs)
	}
}

func TestStartRejectsUnsupportedCombo(t *testing.T) {
	_, a := newApp(t, "AlexNet", tensor.Float32, tflite.DelegateCPU, true)
	if _, err := a.Measure(context.Background(), 0, 1, 1, tflite.DelegateNNAPI); err == nil {
		t.Fatal("unsupported combo accepted")
	}
}

// appBreakdown measures the classification app with n background jobs on
// the given delegate and returns mean per-stage times.
func appBreakdown(t *testing.T, n int, bgDelegate tflite.Delegate) (capPre, inf time.Duration) {
	t.Helper()
	_, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, true)
	const skip = 2 // cold-start warmup frames
	sts, err := a.Measure(context.Background(), skip, 10, n, bgDelegate)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range sts {
		capPre += st.Capture + st.Pre
		inf += st.Inference
	}
	return capPre / time.Duration(len(sts)), inf / time.Duration(len(sts))
}

func TestFigure9DSPBackgroundStretchesInference(t *testing.T) {
	// Fig. 9: background NNAPI(DSP) inferences stall the app's inference
	// on the single DSP; capture+pre stays roughly constant.
	capPre0, inf0 := appBreakdown(t, 0, tflite.DelegateHexagon)
	capPre3, inf3 := appBreakdown(t, 3, tflite.DelegateHexagon)
	if inf3 < 2*inf0 {
		t.Fatalf("3 DSP tenants: inference %v -> %v, want big stretch", inf0, inf3)
	}
	ratio := float64(capPre3) / float64(capPre0)
	if ratio > 1.5 {
		t.Fatalf("capture+pre stretched %.2fx under DSP tenancy, want ~flat", ratio)
	}
}

func TestFigure10CPUBackgroundStretchesCapturePre(t *testing.T) {
	// Fig. 10: background CPU inferences contend with capture and
	// pre-processing; the app's DSP inference stays roughly constant.
	capPre0, inf0 := appBreakdown(t, 0, tflite.DelegateCPU)
	capPre3, inf3 := appBreakdown(t, 3, tflite.DelegateCPU)
	if float64(capPre3) < 1.3*float64(capPre0) {
		t.Fatalf("3 CPU tenants: capture+pre %v -> %v, want clear stretch", capPre0, capPre3)
	}
	if float64(inf3) > 1.6*float64(inf0) {
		t.Fatalf("inference stretched %v -> %v under CPU tenancy, want ~flat", inf0, inf3)
	}
}

func TestInferenceScalesLinearlyWithDSPTenants(t *testing.T) {
	// Fig. 9 reports a linear increase in latency per inference.
	var prev time.Duration
	for _, n := range []int{0, 1, 2} {
		_, inf := appBreakdown(t, n, tflite.DelegateHexagon)
		if inf <= prev {
			t.Fatalf("inference must grow with tenants: n=%d inf=%v prev=%v", n, inf, prev)
		}
		prev = inf
	}
}

func TestMeasureMatchesHandRolledRun(t *testing.T) {
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, true)
	all := runFrames(rt, a, 8)
	_, b := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, true)
	got, err := b.Measure(context.Background(), 2, 6, 0, tflite.DelegateCPU)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, all[2:]) {
		t.Fatalf("Measure = %+v\nwant the run's frames after warmup %+v", got, all[2:])
	}
}
