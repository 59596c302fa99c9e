package driver_test

import (
	"strings"
	"testing"
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/trace"
)

// TestExecuteCostsContract checks the promise Target.Execute makes about
// its schedule: running with costs=nil (each op priced as it runs) and
// with costs=OpCosts(ops, dt) gives the same Result at the same engine
// time, for a cold call and for the warm call after it.
func TestExecuteCostsContract(t *testing.T) {
	m, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	ops := m.Graph.Ops()
	p := soc.Pixel3()
	cpu := func(n int) func(*sim.Engine) driver.Target {
		return func(eng *sim.Engine) driver.Target {
			return driver.NewCPUTarget("cpu", sched.New(eng, sched.DefaultConfig()), &p.Big, n)
		}
	}
	reference := func(eng *sim.Engine) driver.Target {
		return driver.NewReferenceCPUTarget("nnapi-reference", sched.New(eng, sched.DefaultConfig()), &p.Big)
	}
	gpu := func(eng *sim.Engine) driver.Target {
		return driver.NewGPUTarget("gpu", eng, &p.GPU, sim.NewResource(eng, 1), driver.GPUDelegateSupports)
	}
	dsp := func(eng *sim.Engine) driver.Target {
		ch := fastrpc.NewChannel(eng, p.RPC, sim.NewResource(eng, 1))
		return driver.NewDSPTarget("hexagon", &p.DSP, ch, 0.8, driver.HexagonDelegateSupports)
	}
	probed := func(mk func(*sim.Engine) driver.Target) func(*sim.Engine) driver.Target {
		return func(eng *sim.Engine) driver.Target {
			return trace.Instrument(mk(eng), eng, trace.DefaultProbeOverhead, nil, nil)
		}
	}
	cases := []struct {
		name string
		dt   tensor.DType
		mk   func(*sim.Engine) driver.Target
	}{
		{"cpu-1", tensor.Float32, cpu(1)},
		{"cpu-4", tensor.UInt8, cpu(4)},
		{"reference-cpu", tensor.UInt8, reference},
		{"gpu", tensor.Float32, gpu},
		{"dsp", tensor.UInt8, dsp},
		{"gpu+probe", tensor.Float32, probed(gpu)},
		{"dsp+probe", tensor.UInt8, probed(dsp)},
	}
	type call struct {
		res driver.Result
		at  sim.Time
	}
	run := func(mk func(*sim.Engine) driver.Target, dt tensor.DType, scheduled bool) (calls [2]call, end sim.Time, target driver.Target) {
		eng := sim.NewEngine()
		target = mk(eng)
		var costs []time.Duration
		if scheduled {
			costs = target.OpCosts(ops, dt)
		}
		target.Execute(ops, costs, dt, nil, func(cold driver.Result) {
			calls[0] = call{cold, eng.Now()}
			target.Execute(ops, costs, dt, nil, func(warm driver.Result) {
				calls[1] = call{warm, eng.Now()}
			})
		})
		return calls, eng.Run(), target
	}
	for _, c := range cases {
		priced, pricedEnd, target := run(c.mk, c.dt, false)
		scheduled, scheduledEnd, _ := run(c.mk, c.dt, true)
		if _, ok := target.(*trace.InstrumentedTarget); ok != strings.HasSuffix(c.name, "+probe") {
			t.Errorf("%s: target %s instrumented = %v", c.name, target.Name(), ok)
		}
		for i, phase := range []string{"cold", "warm"} {
			if priced[i].at == 0 || priced[i].res.Compute <= 0 {
				t.Errorf("%s %s: call did not complete: %+v", c.name, phase, priced[i])
			}
			if priced[i] != scheduled[i] {
				t.Errorf("%s %s: costs=nil gave %+v at %v, costs=OpCosts gave %+v at %v",
					c.name, phase, priced[i].res, priced[i].at, scheduled[i].res, scheduled[i].at)
			}
		}
		if pricedEnd != scheduledEnd {
			t.Errorf("%s: engine ended at %v with costs=nil, %v with costs=OpCosts", c.name, pricedEnd, scheduledEnd)
		}
	}
}

// TestHexagonMetamorphic checks two relations a warm Hexagon execution
// keeps for every quantized Table-I model on every catalog platform
// built through soc.Spec.Build: a bigger DSP (DSPScale 0.5 → 1 → 2)
// never raises Compute, and a dearer kernel crossing
// (RPC.KernelCrossing ×1 → ×2 → ×4) never lowers Overhead.
func TestHexagonMetamorphic(t *testing.T) {
	warm := func(sp soc.Spec, m *models.Model) driver.Result {
		p, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		eng := sim.NewEngine()
		ch := fastrpc.NewChannel(eng, p.RPC, sim.NewResource(eng, 1))
		dsp := driver.NewDSPTarget("hexagon", &p.DSP, ch, 0.8, driver.HexagonDelegateSupports)
		ops := m.Graph.Ops()
		var res driver.Result
		dsp.Execute(ops, nil, tensor.UInt8, nil, func(driver.Result) {
			dsp.Execute(ops, nil, tensor.UInt8, nil, func(r driver.Result) { res = r })
		})
		eng.Run()
		return res
	}
	checked := 0
	for _, e := range soc.DefaultCatalog() {
		derived, err := e.Spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range models.All() {
			if !m.Support.NNAPIInt8 && !m.Support.CPUInt8 {
				continue
			}
			name := e.Spec.Name + "/" + m.Name
			var computes, overheads []time.Duration
			for _, scale := range []float64{0.5, 1, 2} {
				sp := e.Spec
				sp.DSPScale = scale
				computes = append(computes, warm(sp, m).Compute)
			}
			for _, k := range []time.Duration{1, 2, 4} {
				sp := e.Spec
				sp.RPC = derived.RPC
				sp.RPC.KernelCrossing *= k
				overheads = append(overheads, warm(sp, m).Overhead)
			}
			for i := 1; i < 3; i++ {
				if computes[i] > computes[i-1] {
					t.Errorf("%s: raising DSPScale (0.5, 1, 2) raised Compute: %v", name, computes)
				}
				if overheads[i] < overheads[i-1] {
					t.Errorf("%s: raising KernelCrossing (x1, x2, x4) lowered Overhead: %v", name, overheads)
				}
			}
			checked++
			// Neither relation may hold vacuously.
			if computes[2] >= computes[0] || overheads[2] <= overheads[0] {
				t.Errorf("%s: no effect: Compute %v, Overhead %v", name, computes, overheads)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no quantized model checked")
	}
	t.Logf("%d (platform, model) pairs checked", checked)
}
