package driver

import (
	"testing"
	"time"

	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/nn"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

type rig struct {
	eng *sim.Engine
	sch *sched.Scheduler
	p   *soc.SoC
}

func newRig() *rig {
	eng := sim.NewEngine()
	return &rig{eng: eng, sch: sched.New(eng, sched.DefaultConfig()), p: soc.Pixel3()}
}

func smallGraph() *nn.Graph {
	b := nn.NewBuilder("g", 56, 56, 32)
	b.Conv(64, 3, 1).ReLU6().Conv(64, 1, 1).ReLU6()
	return b.Graph()
}

func TestCPUTargetExecutes(t *testing.T) {
	r := newRig()
	cpu := NewCPUTarget("cpu", r.sch, &r.p.Big, 4)
	var res Result
	cpu.Execute(smallGraph().Ops(), nil, tensor.Float32, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Compute <= 0 {
		t.Fatal("no compute time recorded")
	}
	if res.Total() <= 0 {
		t.Fatal("no total time")
	}
}

func TestCPUFourThreadsBeatOne(t *testing.T) {
	ops := smallGraph().Ops()
	run := func(n int) time.Duration {
		r := newRig()
		cpu := NewCPUTarget("cpu", r.sch, &r.p.Big, n)
		cpu.Execute(ops, nil, tensor.Float32, nil, nil)
		return r.eng.Run().Duration()
	}
	t1, t4 := run(1), run(4)
	sp := float64(t1) / float64(t4)
	if sp < 2.5 || sp > 4 {
		t.Fatalf("4-thread speedup = %.2fx (t1=%v t4=%v), want ~3.2x", sp, t1, t4)
	}
}

func TestCPUInt8FasterThanFP32(t *testing.T) {
	ops := smallGraph().Ops()
	run := func(dt tensor.DType) time.Duration {
		r := newRig()
		cpu := NewCPUTarget("cpu", r.sch, &r.p.Big, 4)
		cpu.Execute(ops, nil, dt, nil, nil)
		return r.eng.Run().Duration()
	}
	if run(tensor.Int8) >= run(tensor.Float32) {
		t.Fatal("int8 must be faster on CPU")
	}
}

func TestCPUSupportsEverything(t *testing.T) {
	r := newRig()
	cpu := NewCPUTarget("cpu", r.sch, &r.p.Big, 1)
	for _, m := range models.All() {
		for _, op := range m.Graph.Ops() {
			if !cpu.Supports(op, tensor.Float32) {
				t.Fatalf("CPU rejected %s", op.Name)
			}
		}
	}
}

func TestGPUTargetExecutes(t *testing.T) {
	r := newRig()
	q := sim.NewResource(r.eng, 1)
	gpu := NewGPUTarget("gpu", r.eng, &r.p.GPU, q, GPUDelegateSupports)
	var res Result
	gpu.Execute(smallGraph().Ops(), nil, tensor.Float32, nil, func(x Result) { res = x })
	r.eng.Run()
	if res.Compute <= 0 || res.Overhead <= 0 {
		t.Fatalf("gpu result = %+v", res)
	}
}

func TestGPUQueueContention(t *testing.T) {
	r := newRig()
	q := sim.NewResource(r.eng, 1)
	gpu := NewGPUTarget("gpu", r.eng, &r.p.GPU, q, GPUDelegateSupports)
	var second Result
	gpu.Execute(smallGraph().Ops(), nil, tensor.Float32, nil, nil)
	gpu.Execute(smallGraph().Ops(), nil, tensor.Float32, nil, func(x Result) { second = x })
	r.eng.Run()
	if second.Queue <= 0 {
		t.Fatal("second submission must queue behind the first")
	}
}

func TestDSPTargetColdThenWarm(t *testing.T) {
	r := newRig()
	dspRes := sim.NewResource(r.eng, 1)
	ch := fastrpc.NewChannel(r.eng, r.p.RPC, dspRes)
	dsp := NewDSPTarget("hexagon", &r.p.DSP, ch, 1.0, HexagonDelegateSupports)
	var cold, warm Result
	dsp.Execute(smallGraph().Ops(), nil, tensor.Int8, nil, func(x Result) {
		cold = x
		dsp.Execute(smallGraph().Ops(), nil, tensor.Int8, nil, func(y Result) { warm = y })
	})
	r.eng.Run()
	if cold.Overhead <= warm.Overhead {
		t.Fatalf("cold overhead %v must exceed warm %v (session setup)", cold.Overhead, warm.Overhead)
	}
	if warm.Compute <= 0 {
		t.Fatal("warm compute missing")
	}
}

func TestDSPEfficiencyScalesCompute(t *testing.T) {
	ops := smallGraph().Ops()
	run := func(eff float64) time.Duration {
		r := newRig()
		dspRes := sim.NewResource(r.eng, 1)
		ch := fastrpc.NewChannel(r.eng, r.p.RPC, dspRes)
		dsp := NewDSPTarget("d", &r.p.DSP, ch, eff, HexagonDelegateSupports)
		var res Result
		dsp.Execute(ops, nil, tensor.Int8, nil, func(x Result) { res = x })
		r.eng.Run()
		return res.Compute
	}
	if run(0.5) <= run(1.0) {
		t.Fatal("lower efficiency must mean more compute time")
	}
}

func TestDSPInt8BeatsCPUOnBigModel(t *testing.T) {
	// The §IV-B expectation under a tuned stack: DSP int8 outruns CPU.
	m, _ := models.ByName("MobileNet 1.0 v1")
	r1 := newRig()
	cpu := NewCPUTarget("cpu", r1.sch, &r1.p.Big, 4)
	cpu.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, nil)
	cpuTime := r1.eng.Run().Duration()

	r2 := newRig()
	dspRes := sim.NewResource(r2.eng, 1)
	ch := fastrpc.NewChannel(r2.eng, r2.p.RPC, dspRes)
	dsp := NewDSPTarget("d", &r2.p.DSP, ch, 1.0, SNPESupports)
	dsp.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, nil)
	dspCold := r2.eng.Run().Duration()

	// Even including the cold start, a full-model DSP run should not be
	// slower than 2x CPU; warm it must win clearly.
	var warm Result
	dsp.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(x Result) { warm = x })
	r2.eng.Run()
	if warm.Total() >= cpuTime {
		t.Fatalf("warm DSP (%v) must beat CPU 4T (%v)", warm.Total(), cpuTime)
	}
	_ = dspCold
}

func TestGPUDelegateSupportMatrix(t *testing.T) {
	conv := &nn.Op{Name: "c", Kind: nn.Conv2D, KH: 3, KW: 3}
	rect := &nn.Op{Name: "r", Kind: nn.Conv2D, KH: 1, KW: 7}
	lrn := &nn.Op{Name: "l", Kind: nn.LocalResponseNorm}
	if !GPUDelegateSupports(conv, tensor.Float32) {
		t.Fatal("gpu must support square conv fp32")
	}
	if GPUDelegateSupports(conv, tensor.UInt8) {
		t.Fatal("gpu delegate is fp32-only")
	}
	if GPUDelegateSupports(rect, tensor.Float32) {
		t.Fatal("gpu must reject rectangular kernels")
	}
	if GPUDelegateSupports(lrn, tensor.Float32) {
		t.Fatal("gpu must reject LRN")
	}
}

func TestHexagonSupportMatrix(t *testing.T) {
	conv := &nn.Op{Name: "c", Kind: nn.Conv2D, KH: 3, KW: 3}
	add := &nn.Op{Name: "a", Kind: nn.Add}
	if HexagonDelegateSupports(conv, tensor.Float32) {
		t.Fatal("hexagon delegate is quantized-only")
	}
	if !HexagonDelegateSupports(conv, tensor.UInt8) {
		t.Fatal("hexagon must support quantized conv")
	}
	if !HexagonDelegateSupports(add, tensor.UInt8) {
		t.Fatal("open hexagon delegate supports quantized add")
	}
}

func TestNNAPIVendorLagsOnQuantizedAdd(t *testing.T) {
	add := &nn.Op{Name: "a", Kind: nn.Add}
	avg := &nn.Op{Name: "p", Kind: nn.AvgPool, KH: 3, KW: 3}
	if NNAPIVendorSupports(add, tensor.UInt8) {
		t.Fatal("vendor NNAPI int8 ADD must be unsupported (Fig. 5 mechanism)")
	}
	if !NNAPIVendorSupports(avg, tensor.UInt8) {
		t.Fatal("vendor NNAPI int8 AvgPool is supported")
	}
	if !NNAPIVendorSupports(add, tensor.Float32) {
		t.Fatal("fp32 ADD is supported (no fp32 cliff in Fig. 5)")
	}
}

func TestSNPESupportsLRN(t *testing.T) {
	lrn := &nn.Op{Name: "l", Kind: nn.LocalResponseNorm}
	if !SNPESupports(lrn, tensor.Float32) {
		t.Fatal("SNPE covers the classic CNN op set")
	}
}

func TestParallelEfficiency(t *testing.T) {
	if parallelEfficiency(1) != 1 {
		t.Fatal("1 thread must be fully efficient")
	}
	if e := parallelEfficiency(4); e < 0.75 || e > 0.85 {
		t.Fatalf("4-thread efficiency = %v", e)
	}
}

func TestResultAddTotal(t *testing.T) {
	a := Result{Compute: 1, Overhead: 2, Queue: 3}
	b := a.Add(Result{Compute: 10, Overhead: 20, Queue: 30})
	if b.Compute != 11 || b.Overhead != 22 || b.Queue != 33 || b.Total() != 66 {
		t.Fatalf("add = %+v", b)
	}
}

func TestSegmentIOBytes(t *testing.T) {
	g := smallGraph()
	n := segmentIOBytes(g.Ops(), tensor.Float32)
	if n <= 0 {
		t.Fatal("io bytes must be positive")
	}
	if q := segmentIOBytes(g.Ops(), tensor.UInt8); q >= n {
		t.Fatal("quantized payload must be smaller")
	}
	if segmentIOBytes(nil, tensor.Float32) != 0 {
		t.Fatal("empty segment payload must be 0")
	}
}

func TestDSPInitGraphHoldsDSP(t *testing.T) {
	r := newRig()
	dspRes := sim.NewResource(r.eng, 1)
	ch := fastrpc.NewChannel(r.eng, r.p.RPC, dspRes)
	dsp := NewDSPTarget("d", &r.p.DSP, ch, 0.6, NNAPIVendorSupports)
	m, _ := models.ByName("EfficientNet-Lite0")
	var res Result
	dsp.InitGraph(m.Graph.Ops(), tensor.UInt8, func(x Result) { res = x })
	r.eng.Run()
	if res.Compute <= 0 {
		t.Fatal("graph init must hold the DSP for a visible interval")
	}
	if dspRes.BusyTime() != res.Compute {
		t.Fatalf("DSP busy %v != init hold %v", dspRes.BusyTime(), res.Compute)
	}
}

func TestEnergyScalesWithWork(t *testing.T) {
	r := newRig()
	cpu := NewCPUTarget("cpu", r.sch, &r.p.Big, 4)
	small := smallGraph().Ops()[:1]
	var eSmall, eAll Result
	cpu.Execute(small, nil, tensor.Float32, nil, func(x Result) { eSmall = x })
	r.eng.Run()
	r2 := newRig()
	cpu2 := NewCPUTarget("cpu", r2.sch, &r2.p.Big, 4)
	cpu2.Execute(smallGraph().Ops(), nil, tensor.Float32, nil, func(x Result) { eAll = x })
	r2.eng.Run()
	if eAll.EnergyJ <= eSmall.EnergyJ || eSmall.EnergyJ <= 0 {
		t.Fatalf("energy must scale with ops: %v vs %v", eSmall.EnergyJ, eAll.EnergyJ)
	}
}

func TestTargetAccessors(t *testing.T) {
	r := newRig()
	cpu := NewCPUTarget("cpu", r.sch, &r.p.Big, 2)
	if cpu.Name() != "cpu" || cpu.Kind() != soc.CPUBig || cpu.Threads() != 2 {
		t.Fatal("cpu accessors wrong")
	}
	ref := NewReferenceCPUTarget("ref", r.sch, &r.p.Big)
	if ref.Threads() != 1 || ref.Efficiency >= 1 {
		t.Fatal("reference target must be one slow thread")
	}
	q := sim.NewResource(r.eng, 1)
	gpu := NewGPUTarget("gpu", r.eng, &r.p.GPU, q, GPUDelegateSupports)
	if gpu.Name() != "gpu" || gpu.Kind() != soc.GPU {
		t.Fatal("gpu accessors wrong")
	}
	conv := &nn.Op{Name: "c", Kind: nn.Conv2D, KH: 3, KW: 3}
	if !gpu.Supports(conv, tensor.Float32) {
		t.Fatal("gpu supports passthrough wrong")
	}
	ch := fastrpc.NewChannel(r.eng, r.p.RPC, sim.NewResource(r.eng, 1))
	dsp := NewDSPTarget("dsp", &r.p.DSP, ch, 0.9, HexagonDelegateSupports)
	if dsp.Name() != "dsp" || dsp.Kind() != soc.DSP || dsp.Channel() != ch {
		t.Fatal("dsp accessors wrong")
	}
	if !dsp.Supports(conv, tensor.UInt8) {
		t.Fatal("dsp supports passthrough wrong")
	}
}

func TestNewDSPTargetRejectsZeroEfficiency(t *testing.T) {
	r := newRig()
	ch := fastrpc.NewChannel(r.eng, r.p.RPC, sim.NewResource(r.eng, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("zero efficiency must panic")
		}
	}()
	NewDSPTarget("d", &r.p.DSP, ch, 0, HexagonDelegateSupports)
}
