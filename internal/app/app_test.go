package app

import (
	"context"
	"testing"
	"time"

	"aitax/internal/capture"
	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/stats"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func newApp(t *testing.T, model string, dt tensor.DType, d tflite.Delegate, streaming bool) (*tflite.Runtime, *App) {
	t.Helper()
	rt := tflite.NewStack(soc.Pixel3(), 42)
	m, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(rt, Config{Model: m, DType: dt, Delegate: d, Streaming: streaming})
	if err != nil {
		t.Fatal(err)
	}
	return rt, a
}

func runFrames(rt *tflite.Runtime, a *App, n int) []core.StageTimes {
	var out []core.StageTimes
	a.Init(func() {
		a.Run(n, func(st []core.StageTimes) {
			out = st
			a.StopStream()
		})
	})
	rt.Eng.Run()
	return out
}

func TestProcessFrameStages(t *testing.T) {
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	sts := runFrames(rt, a, 3)
	if len(sts) != 3 {
		t.Fatalf("frames = %d", len(sts))
	}
	for _, st := range sts {
		var sum time.Duration
		for _, d := range st.Stage {
			if d <= 0 {
				t.Fatalf("missing stage in %+v", st)
			}
			sum += d
		}
		if st.Total < sum-time.Millisecond {
			t.Fatalf("total %v below stage sum", st.Total)
		}
		if st.Tax() != st.Total-st.Stage[core.StageInference] {
			t.Fatal("tax accounting broken")
		}
	}
}

func TestCapturePlusPreRivalsInferenceForQuantMobileNet(t *testing.T) {
	// §IV-A: quantized MobileNet v1 spends up to ~2x as much time on
	// data acquisition + processing as on inference.
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, true)
	sts := runFrames(rt, a, 20)
	var capPre, inf time.Duration
	for _, st := range sts {
		capPre += st.Stage[core.StageCapture] + st.Stage[core.StagePre]
		inf += st.Stage[core.StageInference]
	}
	ratio := float64(capPre) / float64(inf)
	if ratio < 1.0 || ratio > 4.5 {
		t.Fatalf("capture+pre / inference = %.2f, want 1-4.5 (paper: up to ~2x+)", ratio)
	}
}

func TestInceptionInferenceDominates(t *testing.T) {
	// §IV-A: Inception is the model where inference latency dominates.
	rt, a := newApp(t, "Inception v3", tensor.Float32, tflite.DelegateNNAPI, true)
	sts := runFrames(rt, a, 5)
	var capPre, inf time.Duration
	for _, st := range sts {
		capPre += st.Stage[core.StageCapture] + st.Stage[core.StagePre]
		inf += st.Stage[core.StageInference]
	}
	if inf < 2*capPre {
		t.Fatalf("Inception inference (%v) must dominate capture+pre (%v)", inf, capPre)
	}
}

func TestDeepLabPreTiny(t *testing.T) {
	// §IV-A: DeepLab's pre-processing is ~1% of run-time (native ops).
	rt, a := newApp(t, "Deeplab-v3 MobileNet-v2", tensor.Float32, tflite.DelegateNNAPI, true)
	sts := runFrames(rt, a, 5)
	var pre, total time.Duration
	for _, st := range sts {
		pre += st.Stage[core.StagePre]
		total += st.Total
	}
	frac := float64(pre) / float64(total)
	if frac > 0.06 {
		t.Fatalf("DeepLab pre fraction = %.3f, want small (~1%%)", frac)
	}
}

func TestPoseNetPreModerate(t *testing.T) {
	// §IV-A: PoseNet pre-processing ≈ 10% of run-time (includes rotate).
	rt, a := newApp(t, "PoseNet", tensor.Float32, tflite.DelegateNNAPI, true)
	sts := runFrames(rt, a, 5)
	var pre, total time.Duration
	for _, st := range sts {
		pre += st.Stage[core.StagePre]
		total += st.Total
	}
	frac := float64(pre) / float64(total)
	if frac < 0.02 || frac > 0.30 {
		t.Fatalf("PoseNet pre fraction = %.3f, want ~0.1", frac)
	}
}

func TestStreamingStretchesCPUInference(t *testing.T) {
	// Fig. 3's mechanism: the camera stream contends with CPU inference.
	run := func(streaming bool) time.Duration {
		rt, a := newApp(t, "Inception v3", tensor.Float32, tflite.DelegateCPU, streaming)
		sts := runFrames(rt, a, 3)
		var inf time.Duration
		for _, st := range sts {
			inf += st.Stage[core.StageInference]
		}
		return inf
	}
	withStream, without := run(true), run(false)
	if withStream <= without {
		t.Fatalf("streaming must stretch CPU inference: with=%v without=%v", withStream, without)
	}
}

func TestAppVariabilityExceedsBenchmark(t *testing.T) {
	// Fig. 11: app latency distribution is much wider than the
	// benchmark utility's.
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.Float32, tflite.DelegateCPU, true)
	sts := runFrames(rt, a, 60)
	appSample := stats.NewSample()
	for _, st := range sts {
		appSample.Add(float64(st.Total) / float64(time.Millisecond))
	}

	rt2 := tflite.NewStack(soc.Pixel3(), 42)
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, err := rt2.NewInterpreter(m, tensor.Float32, tflite.Options{Delegate: tflite.DelegateCPU})
	if err != nil {
		t.Fatal(err)
	}
	bt := tflite.NewBenchTool(rt2, ip)
	runs, err := bt.Measure(context.Background(), 60)
	if err != nil {
		t.Fatal(err)
	}
	benchSample := stats.NewSample()
	for _, r := range runs {
		benchSample.Add(float64(r.Total) / float64(time.Millisecond))
	}

	if appSample.CV() < 2*benchSample.CV() {
		t.Fatalf("app CV (%.3f) must far exceed benchmark CV (%.3f)",
			appSample.CV(), benchSample.CV())
	}
}

func TestRealPostprocessRuns(t *testing.T) {
	rt := tflite.NewStack(soc.Pixel3(), 7)
	for _, name := range []string{"MobileNet 1.0 v1", "SSD MobileNet v2", "PoseNet"} {
		m, _ := models.ByName(name)
		a, err := New(rt, Config{Model: m, DType: tensor.Float32,
			Delegate: tflite.DelegateCPU, RealPostprocess: true})
		if err != nil {
			t.Fatal(err)
		}
		done := false
		a.Init(func() {
			a.ProcessFrame(func(core.StageTimes) { done = true })
		})
		rt.Eng.Run()
		if !done {
			t.Fatalf("%s frame did not complete", name)
		}
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	rt := tflite.NewStack(soc.Pixel3(), 1)
	if _, err := New(rt, Config{}); err == nil {
		t.Fatal("nil model accepted")
	}
	alex, _ := models.ByName("AlexNet")
	if _, err := New(rt, Config{Model: alex, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI}); err == nil {
		t.Fatal("AlexNet+NNAPI accepted (Table I says N)")
	}
}

func TestBenchToolSamplesComplete(t *testing.T) {
	rt := tflite.NewStack(soc.Pixel3(), 3)
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, _ := rt.NewInterpreter(m, tensor.UInt8, tflite.Options{Delegate: tflite.DelegateCPU})
	bt := tflite.NewBenchTool(rt, ip)
	runs, err := bt.Measure(context.Background(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 10 {
		t.Fatalf("runs = %d", len(runs))
	}
	for _, r := range runs {
		if r.Stage[core.StageCapture] <= 0 || r.Stage[core.StageInference] <= 0 || r.Total <= 0 {
			t.Fatalf("incomplete sample %+v", r)
		}
		if r.Stage[core.StageUI] != 0 {
			t.Fatal("CLI tool must not render UI")
		}
	}
}

func TestBenchToolQuantRandomGenSlower(t *testing.T) {
	// §IV-A: under libc++, integer random generation (quantized inputs)
	// is significantly slower than real generation (fp32 inputs).
	gen := func(dt tensor.DType) time.Duration {
		rt := tflite.NewStack(soc.Pixel3(), 3)
		m, _ := models.ByName("MobileNet 1.0 v1")
		ip, _ := rt.NewInterpreter(m, dt, tflite.Options{Delegate: tflite.DelegateCPU})
		bt := tflite.NewBenchTool(rt, ip)
		bt.NoiseCeil = 0
		runs, err := bt.Measure(context.Background(), 5)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, r := range runs {
			sum += r.Stage[core.StageCapture]
		}
		return sum
	}
	if gen(tensor.UInt8) <= gen(tensor.Float32) {
		t.Fatal("quantized random generation must be slower under libc++")
	}
}

func TestBenchAppWrapperAddsUI(t *testing.T) {
	rt := tflite.NewStack(soc.Pixel3(), 3)
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, tflite.Options{Delegate: tflite.DelegateCPU})
	bt := tflite.NewBenchTool(rt, ip)
	bt.AppWrapper = true
	runs, err := bt.Measure(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if r.Stage[core.StageUI] <= 0 {
			t.Fatal("app wrapper must render UI")
		}
	}
}

func TestFigure3Ordering(t *testing.T) {
	// Fig. 3: real app > benchmark app > CLI benchmark, per model, CPU.
	m, _ := models.ByName("MobileNet 1.0 v1")

	mean := func(appWrapper bool) time.Duration {
		rt := tflite.NewStack(soc.Pixel3(), 42)
		ip, _ := rt.NewInterpreter(m, tensor.Float32, tflite.Options{Delegate: tflite.DelegateCPU})
		bt := tflite.NewBenchTool(rt, ip)
		bt.AppWrapper = appWrapper
		runs, err := bt.Measure(context.Background(), 20)
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, r := range runs {
			sum += r.Total
		}
		return sum / time.Duration(len(runs))
	}
	cli := mean(false)
	benchApp := mean(true)

	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.Float32, tflite.DelegateCPU, true)
	sts := runFrames(rt, a, 20)
	var appSum time.Duration
	for _, st := range sts {
		appSum += st.Total
	}
	appMean := appSum / time.Duration(len(sts))

	if !(appMean > benchApp && benchApp > cli) {
		t.Fatalf("Fig. 3 ordering violated: app=%v benchApp=%v cli=%v", appMean, benchApp, cli)
	}
}

func TestLanguageAppSkipsCamera(t *testing.T) {
	rt, a := newApp(t, "Mobile BERT", tensor.Float32, tflite.DelegateCPU, true)
	sts := runFrames(rt, a, 5)
	for _, st := range sts {
		if st.Stage[core.StageCapture] > time.Millisecond {
			t.Fatalf("language app capture = %v, want sub-ms text fetch", st.Stage[core.StageCapture])
		}
		if st.Stage[core.StagePre] > st.Stage[core.StageInference] {
			t.Fatal("tokenization must be negligible next to BERT inference")
		}
		if st.Stage[core.StageInference] <= 0 || st.Stage[core.StageUI] <= 0 {
			t.Fatalf("incomplete text frame %+v", st)
		}
	}
}

func TestPoseAppFusesIMU(t *testing.T) {
	rt, a := newApp(t, "PoseNet", tensor.Float32, tflite.DelegateCPU, false)
	runFrames(rt, a, 10)
	if a.imu.Reads() != 10 {
		t.Fatalf("IMU reads = %d, want one per frame", a.imu.Reads())
	}
	// Classification apps do not touch the IMU.
	rt2, a2 := newApp(t, "MobileNet 1.0 v1", tensor.Float32, tflite.DelegateCPU, false)
	runFrames(rt2, a2, 5)
	if a2.imu.Reads() != 0 {
		t.Fatalf("classification app read the IMU %d times", a2.imu.Reads())
	}
}

func TestSetCameraBeforeInit(t *testing.T) {
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, false)
	cam := capture.NewCamera(rt.Eng, rt.RNG, 320, 240)
	a.SetCamera(cam)
	if a.Camera() != cam {
		t.Fatal("camera not replaced")
	}
	sts := runFrames(rt, a, 3)
	if len(sts) != 3 {
		t.Fatal("frames incomplete with replaced camera")
	}
}

func TestSetCameraAfterStreamPanics(t *testing.T) {
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, true)
	started := false
	a.Init(func() { started = true })
	rt.Eng.RunUntil(sim.Time(0).Add(200 * time.Millisecond))
	if !started {
		t.Fatal("init incomplete")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCamera after streaming must panic")
		}
	}()
	a.SetCamera(capture.NewCamera(rt.Eng, rt.RNG, 320, 240))
}

func TestPreOnDSPFastWhenIdle(t *testing.T) {
	run := func(preDSP bool) time.Duration {
		rt := tflite.NewStack(soc.Pixel3(), 42)
		m, _ := models.ByName("MobileNet 1.0 v1")
		a, err := New(rt, Config{Model: m, DType: tensor.UInt8,
			Delegate: tflite.DelegateNNAPI, PreOnDSP: preDSP})
		if err != nil {
			t.Fatal(err)
		}
		var pre time.Duration
		a.Init(func() {
			a.Run(6, func(sts []core.StageTimes) {
				for _, st := range sts[2:] {
					pre += st.Stage[core.StagePre]
				}
			})
		})
		rt.Eng.Run()
		return pre
	}
	cpu, dsp := run(false), run(true)
	if dsp >= cpu {
		t.Fatalf("idle DSP pre (%v) must beat managed CPU pre (%v)", dsp, cpu)
	}
}

func TestAppSoak(t *testing.T) {
	// Long-run robustness: 600 frames must complete, drain the event
	// queue, and keep a stable steady-state mean (no drift from leaked
	// state in the scheduler, RPC channel, or camera).
	if testing.Short() {
		t.Skip("soak test")
	}
	rt, a := newApp(t, "MobileNet 1.0 v1", tensor.UInt8, tflite.DelegateNNAPI, true)
	sts := runFrames(rt, a, 600)
	if len(sts) != 600 {
		t.Fatalf("frames = %d", len(sts))
	}
	if rt.Eng.Pending() != 0 {
		t.Fatalf("event queue not drained: %d pending", rt.Eng.Pending())
	}
	var early, late time.Duration
	for _, st := range sts[10:110] {
		early += st.Total
	}
	for _, st := range sts[490:590] {
		late += st.Total
	}
	drift := float64(late) / float64(early)
	if drift < 0.9 || drift > 1.1 {
		t.Fatalf("steady-state drift %.3fx over 600 frames", drift)
	}
}

func TestRealPreprocessRunsAndKeepsStatsIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		dt   tensor.DType
	}{
		{"MobileNet 1.0 v1", tensor.UInt8},
		{"MobileNet 1.0 v1", tensor.Float32},
		{"Deeplab v3", tensor.Float32},
		{"PoseNet", tensor.Float32},
	} {
		var runs [2][]core.StageTimes
		for i, real := range []bool{false, true} {
			rt := tflite.NewStack(soc.Pixel3(), 7)
			m, _ := models.ByName(tc.name)
			a, err := New(rt, Config{Model: m, DType: tc.dt,
				Delegate: tflite.DelegateCPU, RealPreprocess: real})
			if err != nil {
				t.Fatal(err)
			}
			a.cam.Synthesize = true
			a.Init(func() {
				a.Run(3, func(st []core.StageTimes) { runs[i] = st })
			})
			rt.Eng.Run()
			if len(runs[i]) != 3 {
				t.Fatalf("%s real=%v: %d frames", tc.name, real, len(runs[i]))
			}
		}
		// The real kernels run on the host only; the simulated stage
		// breakdown must not notice them.
		for f := range runs[0] {
			if runs[0][f] != runs[1][f] {
				t.Fatalf("%s frame %d: stats differ with RealPreprocess: %+v vs %+v",
					tc.name, f, runs[0][f], runs[1][f])
			}
		}
	}
}
