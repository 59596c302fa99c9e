package nnapi

import (
	"testing"
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// faultyRig builds a framework whose DSP channel and compile path share
// one injector, the way tflite.Runtime wires a real stack.
func faultyRig(t *testing.T, plan faults.Plan) *rig {
	t.Helper()
	inj, err := faults.New(plan.Resolved(1))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := soc.Pixel3()
	dspRes := sim.NewResource(eng, 1)
	gpuQ := sim.NewResource(eng, 1)
	ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
	ch.Faults = inj
	fw := New(Config{
		Engine:       eng,
		AccelFP32:    driver.NewGPUTarget("nnapi-gpu", eng, &p.GPU, gpuQ, driver.NNAPIVendorSupports),
		AccelInt8:    driver.NewDSPTarget("nnapi-dsp", &p.DSP, ch, 0.6, driver.NNAPIVendorSupports),
		FallbackCPU:  driver.NewCPUTarget("nnapi-cpu-fallback", sch, &p.Big, 4),
		ReferenceCPU: driver.NewReferenceCPUTarget("nnapi-ref", sch, &p.Big),
	})
	fw.Faults = inj
	return &rig{eng: eng, sch: sch, p: p, fw: fw,
		cpu: driver.NewCPUTarget("tflite-cpu", sch, &p.Big, 1)}
}

// A driver whose accelerator bring-up fails re-plans the whole graph
// onto the CPU fallback at compile time.
func TestCompileDriverInitFailureReplansOnCPU(t *testing.T) {
	r := faultyRig(t, faults.Plan{DelegateInitFailRate: 1})
	clean := newRig()
	m, _ := models.ByName("MobileNet 1.0 v1")
	cm := r.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	if !cm.DriverInitFailed {
		t.Fatal("DriverInitFailed not set")
	}
	if cm.ReferenceFallback {
		t.Fatal("init failure is not the shatter pathology")
	}
	if n := cm.AccelPartitions(); n != 0 {
		t.Fatalf("accel partitions = %d after init failure", n)
	}
	cleanCM := clean.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	if cm.CompileTime <= cleanCM.CompileTime {
		t.Fatalf("re-planning must cost extra compile time: %v vs %v", cm.CompileTime, cleanCM.CompileTime)
	}
	// The plan still executes to completion, entirely on CPU.
	var rep Report
	done := false
	r.fw.Execute(cm, func(rp Report) { rep = rp; done = true })
	r.eng.Run()
	if !done || rep.Total() <= 0 {
		t.Fatalf("execution did not complete: done=%v rep=%+v", done, rep)
	}
	if rep.Fallbacks != 0 {
		t.Fatal("compile-time re-plan must not count as an execute-time fallback")
	}
}

// A partition that dies on the DSP mid-run is re-run on the CPU
// fallback, permanently, and the report carries the fallback cost.
func TestExecuteFallbackOnPartitionFailure(t *testing.T) {
	r := faultyRig(t, faults.Plan{RPCTimeoutRate: 1, Deadline: 30 * time.Millisecond, MaxAttempts: 2})
	m, _ := models.ByName("MobileNet 1.0 v1")
	cm := r.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	if cm.AccelPartitions() == 0 {
		t.Fatal("plan must start with DSP partitions")
	}

	var rep Report
	r.fw.Execute(cm, func(rp Report) { rep = rp })
	r.eng.Run()
	if rep.Err != nil {
		t.Fatalf("fallback must clear the error: %v", rep.Err)
	}
	if rep.Fallbacks == 0 || rep.FallbackCost <= 0 {
		t.Fatalf("fallback not recorded: %+v", rep)
	}
	if rep.Retry <= 0 {
		t.Fatal("the failed attempts' retry time must be reported")
	}
	moved := 0
	for _, p := range cm.Partitions {
		if p.Target == r.fw.FallbackCPU && p.Costs == nil {
			moved++
		}
	}
	if moved != rep.Fallbacks {
		t.Fatalf("%d partitions moved to the CPU fallback, want one per fallback (%d)", moved, rep.Fallbacks)
	}
	if cm.AccelPartitions() != 0 {
		t.Fatal("failed partition must move to the CPU for good")
	}

	// The degraded plan keeps working with no further fallbacks.
	var rep2 Report
	r.fw.Execute(cm, func(rp Report) { rep2 = rp })
	r.eng.Run()
	if rep2.Fallbacks != 0 || rep2.Retry != 0 || rep2.Err != nil {
		t.Fatalf("steady state after fallback not clean: %+v", rep2)
	}
}
