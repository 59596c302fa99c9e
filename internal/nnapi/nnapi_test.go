package nnapi

import (
	"testing"
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

type rig struct {
	eng *sim.Engine
	sch *sched.Scheduler
	p   *soc.SoC
	fw  *Framework
	cpu *driver.CPUTarget // plain TFLite CPU path for comparisons
}

func newRig() *rig {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := soc.Pixel3()
	dspRes := sim.NewResource(eng, 1)
	gpuQ := sim.NewResource(eng, 1)
	ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
	fw := New(Config{
		Engine:       eng,
		AccelFP32:    driver.NewGPUTarget("nnapi-gpu", eng, &p.GPU, gpuQ, driver.NNAPIVendorSupports),
		AccelInt8:    driver.NewDSPTarget("nnapi-dsp", &p.DSP, ch, 0.6, driver.NNAPIVendorSupports),
		FallbackCPU:  driver.NewCPUTarget("nnapi-cpu-fallback", sch, &p.Big, 4),
		ReferenceCPU: driver.NewReferenceCPUTarget("nnapi-ref", sch, &p.Big),
	})
	return &rig{
		eng: eng, sch: sch, p: p, fw: fw,
		cpu: driver.NewCPUTarget("tflite-cpu", sch, &p.Big, 1),
	}
}

func TestCompileMobileNetInt8FullyOffloads(t *testing.T) {
	r := newRig()
	m, _ := models.ByName("MobileNet 1.0 v1")
	cm := r.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	if cm.ReferenceFallback {
		t.Fatal("MobileNet int8 must not fall back")
	}
	if f := cm.OffloadedFraction(); f < 0.95 {
		t.Fatalf("offloaded fraction = %.2f, want ~1", f)
	}
	if len(cm.Partitions) > 2 {
		t.Fatalf("partitions = %d, want <=2", len(cm.Partitions))
	}
}

func TestCompileEfficientNetInt8Shatters(t *testing.T) {
	// Fig. 5's mechanism: EfficientNet-Lite0's quantized residual ADDs
	// are unsupported, the plan shatters, NNAPI retreats to the
	// reference CPU path.
	r := newRig()
	m, _ := models.ByName("EfficientNet-Lite0")
	cm := r.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	if !cm.ReferenceFallback {
		t.Fatal("EfficientNet int8 must trigger the reference fallback")
	}
	if len(cm.Partitions) != 1 || cm.Partitions[0].Target.Name() != "nnapi-ref" {
		t.Fatal("fallback plan must be one reference-CPU partition")
	}
}

func TestCompileEfficientNetFP32IsFine(t *testing.T) {
	r := newRig()
	m, _ := models.ByName("EfficientNet-Lite0")
	cm := r.fw.Compile(m.Graph, tensor.Float32, FastSingleAnswer)
	if cm.ReferenceFallback {
		t.Fatal("fp32 plan must not fall back (no cliff in Fig. 5 fp32)")
	}
	if f := cm.OffloadedFraction(); f < 0.9 {
		t.Fatalf("fp32 offload fraction = %.2f", f)
	}
}

func TestCompileInceptionV3HalfOnCPU(t *testing.T) {
	// §IV-A: Inception v3 is "only partially able to be offloaded by
	// NNAPI and runs around half of its inference on the CPU".
	r := newRig()
	m, _ := models.ByName("Inception v3")
	cm := r.fw.Compile(m.Graph, tensor.Float32, FastSingleAnswer)
	f := cm.OffloadedFraction()
	if f < 0.25 || f > 0.75 {
		t.Fatalf("Inception v3 offloaded fraction = %.2f, want ~0.5", f)
	}
	if len(cm.Partitions) < 3 {
		t.Fatal("Inception v3 must split into multiple partitions")
	}
}

func TestCompileTimeScalesWithOps(t *testing.T) {
	r := newRig()
	small, _ := models.ByName("MobileNet 1.0 v1")
	big, _ := models.ByName("Inception v4")
	cs := r.fw.Compile(small.Graph, tensor.Float32, FastSingleAnswer)
	cb := r.fw.Compile(big.Graph, tensor.Float32, FastSingleAnswer)
	if cb.CompileTime <= cs.CompileTime {
		t.Fatal("bigger graphs must take longer to compile")
	}
}

func TestExecutePartitionedPlan(t *testing.T) {
	r := newRig()
	m, _ := models.ByName("Inception v3")
	cm := r.fw.Compile(m.Graph, tensor.Float32, FastSingleAnswer)
	var rep Report
	r.fw.Execute(cm, func(x Report) { rep = x })
	r.eng.Run()
	if rep.Transitions != len(cm.Partitions)-1 {
		t.Fatalf("transitions = %d, want %d", rep.Transitions, len(cm.Partitions)-1)
	}
	used := map[string]bool{}
	for _, p := range cm.Partitions {
		used[p.Target.Name()] = true
	}
	if !used["nnapi-gpu"] || !used["nnapi-cpu-fallback"] {
		t.Fatalf("partition targets = %v, want both targets used", used)
	}
	if rep.Total() <= 0 {
		t.Fatal("no total time")
	}
}

func TestFigure5Shape(t *testing.T) {
	// The headline Fig. 5 result: quantized EfficientNet-Lite0 through
	// NNAPI is ~7x slower than a single CPU thread.
	m, _ := models.ByName("EfficientNet-Lite0")

	r1 := newRig()
	cm := r1.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	r1.fw.Execute(cm, nil)
	nnapiTime := r1.eng.Run().Duration()

	r2 := newRig()
	r2.cpu.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, nil)
	cpu1Time := r2.eng.Run().Duration()

	ratio := float64(nnapiTime) / float64(cpu1Time)
	if ratio < 4 || ratio > 11 {
		t.Fatalf("NNAPI/CPU-1T = %.1fx (nnapi=%v cpu=%v), want ~7x", ratio, nnapiTime, cpu1Time)
	}
}

func TestReferencePathMigrates(t *testing.T) {
	// Fig. 6: the fallback run shows frequent CPU migrations.
	r := newRig()
	m, _ := models.ByName("EfficientNet-Lite0")
	cm := r.fw.Compile(m.Graph, tensor.UInt8, FastSingleAnswer)
	r.fw.Execute(cm, nil)
	r.eng.Run()
	if r.sch.Migrations() < 10 {
		t.Fatalf("migrations = %d, want many (Fig. 6 pathology)", r.sch.Migrations())
	}
}

func TestPreferenceStrings(t *testing.T) {
	for _, p := range []Preference{FastSingleAnswer, SustainedSpeed, LowPower} {
		if p.String() == "" {
			t.Fatal("empty preference name")
		}
	}
	if FastSingleAnswer.String() != "FAST_SINGLE_ANSWER" {
		t.Fatalf("name = %s", FastSingleAnswer.String())
	}
}

func TestTransitionOverheadAdvancesClock(t *testing.T) {
	r := newRig()
	m, _ := models.ByName("Inception v3")
	cm := r.fw.Compile(m.Graph, tensor.Float32, FastSingleAnswer)
	var rep Report
	r.fw.Execute(cm, func(x Report) { rep = x })
	end := r.eng.Run().Duration()
	minOverhead := time.Duration(rep.Transitions) * r.fw.TransitionOverhead
	if end < minOverhead {
		t.Fatalf("wall %v < transition overhead %v: transitions not timed", end, minOverhead)
	}
}

func TestPartitionsCoverGraphInOrder(t *testing.T) {
	// Property over the whole zoo: partitions must cover every op
	// exactly once, in graph order, for both precisions.
	r := newRig()
	for _, m := range models.All() {
		for _, dt := range []tensor.DType{tensor.Float32, tensor.UInt8} {
			cm := r.fw.Compile(m.Graph, dt, FastSingleAnswer)
			i := 0
			ops := m.Graph.Ops()
			for _, p := range cm.Partitions {
				for _, op := range p.Ops {
					if i >= len(ops) || ops[i] != op {
						t.Fatalf("%s/%v: partition ops out of order at %d", m.Name, dt, i)
					}
					i++
				}
			}
			if i != len(ops) {
				t.Fatalf("%s/%v: partitions cover %d/%d ops", m.Name, dt, i, len(ops))
			}
			if f := cm.OffloadedFraction(); f < 0 || f > 1 {
				t.Fatalf("%s/%v: offloaded fraction %v", m.Name, dt, f)
			}
		}
	}
}
