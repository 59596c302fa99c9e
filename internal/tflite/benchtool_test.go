package tflite

import (
	"testing"

	"aitax/internal/core"
	"aitax/internal/imaging"
	"aitax/internal/models"
	"aitax/internal/postproc"
	"aitax/internal/snpe"
	"aitax/internal/tensor"
)

func TestBenchToolDirect(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, err := rt.NewInterpreter(m, tensor.UInt8, Options{Delegate: DelegateHexagon})
	if err != nil {
		t.Fatal(err)
	}
	bt := NewBenchTool(rt, ip)
	var runs []core.StageTimes
	bt.run(8, func(s []core.StageTimes) { runs = s })
	rt.Eng.Run()
	if len(runs) != 8 {
		t.Fatalf("runs = %d", len(runs))
	}
	// Warmup absorbed the cold start: steady-state totals must be tight.
	for _, r := range runs[1:] {
		if r.Total > 2*runs[0].Total {
			t.Fatalf("unexpected cold-start leak: %v vs %v", r.Total, runs[0].Total)
		}
	}
}

func TestBenchToolLanguageModel(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("Mobile BERT")
	ip, err := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateCPU})
	if err != nil {
		t.Fatal(err)
	}
	bt := NewBenchTool(rt, ip)
	var runs []core.StageTimes
	bt.run(3, func(s []core.StageTimes) { runs = s })
	rt.Eng.Run()
	if len(runs) != 3 {
		t.Fatalf("runs = %d", len(runs))
	}
	// Token-id generation is tiny compared with image tensors.
	if runs[0].Stage[core.StageCapture] > runs[0].Stage[core.StageInference] {
		t.Fatal("BERT input generation should be negligible")
	}
}

func TestBenchToolOnAlreadyInitializedInterpreter(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateCPU})
	ip.Init(nil)
	rt.Eng.Run()
	bt := NewBenchTool(rt, ip)
	var runs []core.StageTimes
	bt.run(2, func(s []core.StageTimes) { runs = s })
	rt.Eng.Run()
	if len(runs) != 2 {
		t.Fatal("bench tool must handle pre-initialized interpreters")
	}
}

func TestNewSNPEWiredToSharedDSP(t *testing.T) {
	rt := stack()
	sdk := rt.NewSNPE()
	m, _ := models.ByName("MobileNet 1.0 v1")
	net, err := sdk.Load(m.Graph, tensor.UInt8, snpe.RuntimeDSP)
	if err != nil {
		t.Fatal(err)
	}
	net.Execute(nil)
	rt.Eng.Run()
	// The SNPE DSP target and the Hexagon delegate share the runtime's
	// DSP resource: usage must be visible on it.
	if rt.DSP.Served() == 0 {
		t.Fatal("SNPE execution did not touch the shared DSP")
	}
}

func TestInterpreterFabricateOutputsMethod(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("PoseNet")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateCPU})
	outs := ip.FabricateOutputs()
	if len(outs) != 2 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if !outs[0].Shape.Equal(m.OutputShapes[0]) {
		t.Fatalf("shape = %v", outs[0].Shape)
	}
}

func TestSegmentsNNAPI(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("Inception v3")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateNNAPI})
	if ip.Segments() != 0 {
		t.Fatal("segments before init must be 0 for NNAPI")
	}
	ip.Init(nil)
	rt.Eng.Run()
	if ip.Segments() < 3 {
		t.Fatalf("Inception NNAPI segments = %d, want several", ip.Segments())
	}
}

func TestSetInputValidatesShape(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateCPU})

	good := tensor.New(tensor.Float32, tensor.Shape{1, 224, 224, 3})
	if err := ip.SetInput(good); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if ip.Input() != good {
		t.Fatal("input not bound")
	}
	bad := tensor.New(tensor.Float32, tensor.Shape{1, 299, 299, 3})
	if err := ip.SetInput(bad); err == nil {
		t.Fatal("wrong-shape input accepted")
	}
	quant := tensor.New(tensor.UInt8, tensor.Shape{1, 224, 224, 3})
	if err := ip.SetInput(quant); err == nil {
		t.Fatal("quantized input into fp32 model accepted")
	}
}

func TestSetInputLanguageModel(t *testing.T) {
	rt := stack()
	m, _ := models.ByName("Mobile BERT")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateCPU})
	ids := tensor.New(tensor.Int32, tensor.Shape{1, 128})
	if err := ip.SetInput(ids); err != nil {
		t.Fatalf("token input rejected: %v", err)
	}
	short := tensor.New(tensor.Int32, tensor.Shape{1, 64})
	if err := ip.SetInput(short); err == nil {
		t.Fatal("wrong-length token input accepted")
	}
}

func TestEndToEndRealPipelineIntoInterpreter(t *testing.T) {
	// The full real pipeline: synthetic sensor frame -> NV21->ARGB ->
	// model pre-spec -> validated interpreter input -> (simulated)
	// inference -> real topK on fabricated outputs.
	rt := stack()
	m, _ := models.ByName("MobileNet 1.0 v1")
	ip, _ := rt.NewInterpreter(m, tensor.Float32, Options{Delegate: DelegateCPU})

	frame := imaging.SyntheticFrame(480, 360, 9)
	bitmap := imaging.YUVToARGB(frame)
	input, _ := m.PreSpec(tensor.Float32).Run(bitmap)
	if err := ip.SetInput(input); err != nil {
		t.Fatal(err)
	}
	classes := 0
	ip.Init(func() {
		ip.Invoke(func(Report) {
			outs := ip.FabricateOutputs()
			classes = len(postproc.TopK(outs[0], 5))
		})
	})
	rt.Eng.Run()
	if classes != 5 {
		t.Fatalf("pipeline produced %d classes", classes)
	}
}

func TestGPUAllowFP16Faster(t *testing.T) {
	m, _ := models.ByName("Inception v3")
	run := func(fp16 bool) int64 {
		rt := stack()
		ip, err := rt.NewInterpreter(m, tensor.Float32, Options{
			Delegate: DelegateGPU, GPUAllowFP16: fp16,
		})
		if err != nil {
			t.Fatal(err)
		}
		var warm int64
		ip.Init(func() {
			ip.Invoke(func(Report) {
				start := rt.Eng.Now()
				ip.Invoke(func(Report) { warm = int64(rt.Eng.Now().Sub(start)) })
			})
		})
		rt.Eng.Run()
		return warm
	}
	full, half := run(false), run(true)
	ratio := float64(full) / float64(half)
	if ratio < 1.3 || ratio > 1.8 {
		t.Fatalf("fp16 speedup = %.2fx, want ~1.7x on the GPU portion", ratio)
	}
}
