package tflite

import (
	"testing"
	"time"

	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/postproc"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

func stack() *Runtime { return NewStack(soc.Pixel3(), 42) }

func mustInterpreter(t *testing.T, rt *Runtime, name string, dt tensor.DType, opts Options) *Interpreter {
	t.Helper()
	m, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := rt.NewInterpreter(m, dt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

// initAndInvoke initializes, performs one warmup run (as the TFLite
// benchmark utility does before measuring), then measures one invocation.
func initAndInvoke(t *testing.T, rt *Runtime, ip *Interpreter) (Report, time.Duration) {
	t.Helper()
	var rep Report
	var invokeStart time.Duration
	ip.Init(func() {
		ip.Invoke(func(Report) { // warmup: absorbs cold-start costs
			invokeStart = rt.Eng.Now().Duration()
			ip.Invoke(func(r Report) { rep = r })
		})
	})
	end := rt.Eng.Run().Duration()
	return rep, end - invokeStart
}

func TestCPUInvoke(t *testing.T) {
	rt := stack()
	ip := mustInterpreter(t, rt, "MobileNet 1.0 v1", tensor.Float32, Options{Delegate: DelegateCPU})
	rep, lat := initAndInvoke(t, rt, ip)
	if rep.Compute <= 0 {
		t.Fatal("no compute")
	}
	// MobileNet fp32 on 4 big-core threads: plausible mobile latency.
	if lat < 5*time.Millisecond || lat > 80*time.Millisecond {
		t.Fatalf("MobileNet fp32 CPU latency = %v, want 5-80ms", lat)
	}
}

func TestInitTimeSeparateFromInvoke(t *testing.T) {
	rt := stack()
	ip := mustInterpreter(t, rt, "MobileNet 1.0 v1", tensor.Float32, Options{Delegate: DelegateCPU})
	_, _ = initAndInvoke(t, rt, ip)
	if ip.InitTime <= 0 {
		t.Fatal("init time missing")
	}
}

func TestInvokeBeforeInitPanics(t *testing.T) {
	rt := stack()
	ip := mustInterpreter(t, rt, "MobileNet 1.0 v1", tensor.Float32, Options{Delegate: DelegateCPU})
	defer func() {
		if recover() == nil {
			t.Fatal("Invoke before Init must panic")
		}
	}()
	ip.Invoke(nil)
}

func TestGPUDelegateFasterThanCPUForBigFP32(t *testing.T) {
	run := func(d Delegate) time.Duration {
		rt := stack()
		ip := mustInterpreter(t, rt, "Inception v3", tensor.Float32, Options{Delegate: d})
		_, lat := initAndInvoke(t, rt, ip)
		return lat
	}
	cpu, gpu := run(DelegateCPU), run(DelegateGPU)
	if gpu >= cpu {
		t.Fatalf("GPU (%v) must beat CPU (%v) on Inception fp32", gpu, cpu)
	}
}

func TestHexagonDelegateRequiresQuantized(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("MobileNet 1.0 v1")
	if _, err := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateHexagon}); err == nil {
		t.Fatal("fp32 Hexagon must be rejected")
	}
	if _, err := rt.NewInterpreter(m, tensor.UInt8, Options{Delegate: DelegateHexagon}); err != nil {
		t.Fatalf("uint8 Hexagon rejected: %v", err)
	}
}

func TestTableIGatesDelegates(t *testing.T) {
	rt := stack()
	alex, _ := models.ByName("AlexNet")
	if _, err := rt.NewInterpreter(alex, tensor.Float32, Options{Delegate: DelegateNNAPI}); err == nil {
		t.Fatal("AlexNet+NNAPI must be rejected (Table I: N)")
	}
	if _, err := rt.NewInterpreter(alex, tensor.Float32, Options{Delegate: DelegateCPU}); err != nil {
		t.Fatalf("AlexNet+CPU rejected: %v", err)
	}
	pose, _ := models.ByName("PoseNet")
	if _, err := rt.NewInterpreter(pose, tensor.UInt8, Options{Delegate: DelegateCPU}); err == nil {
		t.Fatal("PoseNet has no quantized variant (Table I)")
	}
}

func TestNNAPIQuantizedEfficientNetSlow(t *testing.T) {
	// End-to-end Fig. 5 through the interpreter API.
	run := func(d Delegate, threads int) time.Duration {
		rt := stack()
		ip := mustInterpreter(t, rt, "EfficientNet-Lite0", tensor.UInt8,
			Options{Delegate: d, Threads: threads})
		_, lat := initAndInvoke(t, rt, ip)
		return lat
	}
	nnapiLat := run(DelegateNNAPI, 4)
	cpu1 := run(DelegateCPU, 1)
	cpu4 := run(DelegateCPU, 4)
	hex := run(DelegateHexagon, 4)
	if !(hex < cpu4 && cpu4 < cpu1 && cpu1 < nnapiLat) {
		t.Fatalf("Fig. 5 ordering violated: hexagon=%v cpu4=%v cpu1=%v nnapi=%v",
			hex, cpu4, cpu1, nnapiLat)
	}
	ratio := float64(nnapiLat) / float64(cpu1)
	if ratio < 4 || ratio > 11 {
		t.Fatalf("NNAPI degradation = %.1fx, want ~7x", ratio)
	}
}

func TestGPUInitDominatedByShaderCompile(t *testing.T) {
	rt := stack()
	cpuIP := mustInterpreter(t, rt, "MobileNet 1.0 v1", tensor.Float32, Options{Delegate: DelegateCPU})
	rt2 := stack()
	gpuIP := mustInterpreter(t, rt2, "MobileNet 1.0 v1", tensor.Float32, Options{Delegate: DelegateGPU})
	cpuIP.Init(nil)
	rt.Eng.Run()
	gpuIP.Init(nil)
	rt2.Eng.Run()
	if gpuIP.InitTime <= cpuIP.InitTime {
		t.Fatal("GPU delegate init must cost more than CPU init")
	}
}

func TestSegments(t *testing.T) {
	rt := stack()
	ip := mustInterpreter(t, rt, "MobileNet 1.0 v1", tensor.UInt8, Options{Delegate: DelegateHexagon})
	if ip.Segments() < 1 {
		t.Fatal("no segments")
	}
	// MobileNet under the Hexagon delegate: a single DSP partition.
	if ip.Segments() > 2 {
		t.Fatalf("MobileNet hexagon segments = %d, want 1-2", ip.Segments())
	}
}

// TestAccelerated reports the plan that will run, not the delegate
// asked for: NNAPI sends quantized EfficientNet-Lite0 to its reference
// CPU path (Fig. 5), and a fallback leaves a delegate on the CPU.
func TestAccelerated(t *testing.T) {
	for _, c := range []struct {
		model string
		dt    tensor.DType
		d     Delegate
		want  bool
	}{
		{"MobileNet 1.0 v1", tensor.Float32, DelegateCPU, false},
		{"MobileNet 1.0 v1", tensor.UInt8, DelegateHexagon, true},
		{"MobileNet 1.0 v1", tensor.UInt8, DelegateNNAPI, true},
		{"EfficientNet-Lite0", tensor.UInt8, DelegateNNAPI, false},
	} {
		rt := stack()
		ip := mustInterpreter(t, rt, c.model, c.dt, Options{Delegate: c.d})
		ip.Init(nil)
		rt.Eng.Run()
		if got := ip.Accelerated(); got != c.want {
			t.Errorf("%s %v %v: Accelerated() = %v, want %v", c.model, c.dt, c.d, got, c.want)
		}
		if c.d == DelegateHexagon {
			ip.fallBackToCPU(nil)
			if ip.Accelerated() {
				t.Errorf("%s %v %v: Accelerated() after a fallback to the CPU", c.model, c.dt, c.d)
			}
		}
	}
}

func TestRandomInputWorkQuirk(t *testing.T) {
	elems := 224 * 224 * 3
	fp32LibCXX := RandomInputWork(elems, tensor.Float32, LibCXX)
	intLibCXX := RandomInputWork(elems, tensor.UInt8, LibCXX)
	fp32LibStd := RandomInputWork(elems, tensor.Float32, LibStdCXX)
	intLibStd := RandomInputWork(elems, tensor.UInt8, LibStdCXX)
	// libc++: reals much faster than integers; libstdc++ the opposite.
	if intLibCXX.Ops <= fp32LibCXX.Ops {
		t.Fatal("libc++ integer generation must be slower than real")
	}
	if fp32LibStd.Ops <= intLibStd.Ops {
		t.Fatal("libstdc++ real generation must be slower than integer")
	}
}

func TestStdLibStrings(t *testing.T) {
	if LibCXX.String() != "libc++" || LibStdCXX.String() != "libstdc++" {
		t.Fatal("stdlib names wrong")
	}
}

func TestFabricatedOutputsFeedPostprocessing(t *testing.T) {
	rt := stack()
	// Classification output feeds topK.
	mob, _ := models.ByName("MobileNet 1.0 v1")
	outs := FabricateOutputs(mob, tensor.Float32, rt.RNG)
	if len(outs) != 1 || !outs[0].Shape.Equal(tensor.Shape{1, 1001}) {
		t.Fatalf("mobilenet outputs = %v", outs)
	}
	top := postproc.TopK(outs[0], 5)
	if len(top) != 5 || top[0].Score <= top[4].Score {
		t.Fatalf("topK on fabricated output broken: %v", top)
	}

	// Detection outputs feed box decode + NMS.
	ssd, _ := models.ByName("SSD MobileNet v2")
	souts := FabricateOutputs(ssd, tensor.Float32, rt.RNG)
	anchors := postproc.DefaultAnchors(26) // 26*26*3 > 1917
	boxes := postproc.DecodeBoxes(souts[0], souts[1], anchors[:1917], 0.5)
	if len(boxes) == 0 {
		t.Fatal("fabricated detections produced no boxes")
	}
	kept := postproc.NMS(boxes, 0.5, 10)
	if len(kept) == 0 || len(kept) > 10 {
		t.Fatalf("NMS kept %d", len(kept))
	}

	// Pose outputs feed keypoint decode.
	pose, _ := models.ByName("PoseNet")
	pouts := FabricateOutputs(pose, tensor.Float32, rt.RNG)
	kps := postproc.DecodeKeypoints(pouts[0], pouts[1], pose.PoseOutputStride)
	if len(kps) != 17 {
		t.Fatalf("keypoints = %d, want 17", len(kps))
	}
}

func TestFabricatedQuantizedOutputs(t *testing.T) {
	rt := stack()
	mob, _ := models.ByName("MobileNet 1.0 v1")
	outs := FabricateOutputs(mob, tensor.UInt8, rt.RNG)
	if outs[0].DType != tensor.UInt8 {
		t.Fatalf("dtype = %v", outs[0].DType)
	}
	deq := postproc.Dequantize(outs[0])
	if deq.DType != tensor.Float32 {
		t.Fatal("dequantize failed")
	}
}

func TestSegmentationOutputFeedsMaskFlatten(t *testing.T) {
	rt := stack()
	dl, _ := models.ByName("Deeplab-v3 MobileNet-v2")
	outs := FabricateOutputs(dl, tensor.Float32, rt.RNG)
	mask := postproc.FlattenMask(outs[0])
	if len(mask) != 513*513 {
		t.Fatalf("mask = %d px", len(mask))
	}
	seen := map[int]bool{}
	for _, c := range mask {
		seen[c] = true
	}
	if len(seen) < 2 {
		t.Fatal("fabricated mask must have multiple classes")
	}
}

func TestDelegateStrings(t *testing.T) {
	for _, d := range []Delegate{DelegateCPU, DelegateGPU, DelegateHexagon, DelegateNNAPI} {
		if d.String() == "" {
			t.Fatal("empty delegate name")
		}
	}
}

func TestDeterministicInvocation(t *testing.T) {
	run := func() time.Duration {
		rt := stack()
		ip := mustInterpreter(t, rt, "SSD MobileNet v2", tensor.UInt8, Options{Delegate: DelegateNNAPI})
		_, lat := initAndInvoke(t, rt, ip)
		return lat
	}
	if run() != run() {
		t.Fatal("invocation latency is nondeterministic")
	}
}

// TestSupportedMirrorsTableI pins the grid filter against the
// validation NewInterpreter performs, so serving's prewarm pass never
// enumerates a combination that would fail to build.
func TestSupportedMirrorsTableI(t *testing.T) {
	mobilenet, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	deeplab, err := models.ByName("Deeplab-v3 MobileNet-v2")
	if err != nil {
		t.Fatal(err)
	}
	if !Supported(mobilenet, tensor.Int8, DelegateHexagon) {
		t.Fatal("quantized MobileNet on Hexagon is a Table-I configuration")
	}
	if Supported(mobilenet, tensor.Float32, DelegateHexagon) {
		t.Fatal("the Hexagon delegate requires a quantized model")
	}
	if Supported(deeplab, tensor.Int8, DelegateCPU) {
		t.Fatal("Deeplab has no quantized variant (Table I)")
	}
	// The filter must agree with NewInterpreter over the whole grid.
	p := soc.Pixel3()
	rt := NewStack(p, 0)
	rt.Plans = plan.New()
	for _, m := range []*models.Model{mobilenet, deeplab} {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.Int8} {
			for _, d := range []Delegate{DelegateCPU, DelegateGPU, DelegateHexagon, DelegateNNAPI} {
				_, err := rt.NewInterpreter(m, dt, Options{Delegate: d})
				if got, want := Supported(m, dt, d), err == nil; got != want {
					t.Errorf("%s/%v/%v: Supported=%v, NewInterpreter err=%v", m.Name, dt, d, got, err)
				}
			}
		}
	}
}
