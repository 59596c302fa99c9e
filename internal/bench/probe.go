package bench

import (
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/tensor"
	"aitax/internal/trace"
)

// probeRun measures one warm inference with and without driver
// instrumentation, on the DSP (dsp=true) or the 4-thread CPU path.
func probeRun(cfg Config, m *models.Model, dsp bool) (plain, probed time.Duration) {
	measure := func(instrument bool) time.Duration {
		p := clonePlatform(cfg.Platform)
		eng := sim.NewEngine()
		sch := sched.New(eng, sched.DefaultConfig())
		var target driver.Target
		if dsp {
			res := sim.NewResource(eng, "dsp", 1)
			ch := fastrpc.NewChannel(eng, p.RPC, res)
			target = driver.NewDSPTarget("snpe-dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
		} else {
			target = driver.NewCPUTarget("cpu", sch, &p.Big, 4)
		}
		if instrument {
			target = trace.Instrument(target, eng, trace.DefaultProbeOverhead, nil, nil)
		}
		var warm time.Duration
		target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(driver.Result) {
			start := eng.Now()
			target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(driver.Result) {
				warm = eng.Now().Sub(start)
			})
		})
		eng.Run()
		return warm
	}
	return measure(false), measure(true)
}
