package bench

import (
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/trace"
)

// probeRun measures one warm inference with and without driver
// instrumentation, on the DSP (dsp=true) or the 4-thread CPU path.
func probeRun(cfg Config, m *models.Model, dsp bool) (plain, probed time.Duration) {
	measure := func(instrument bool) time.Duration {
		rt := cfg.stack()
		p := rt.Platform
		var target driver.Target
		if dsp {
			ch := fastrpc.NewChannel(rt.Eng, p.RPC, rt.DSP)
			target = driver.NewDSPTarget("snpe-dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
		} else {
			target = driver.NewCPUTarget("cpu", rt.Sch, &p.Big, 4)
		}
		if instrument {
			target = trace.Instrument(target, rt.Eng, trace.DefaultProbeOverhead, nil, nil)
		}
		_, warm := warmRun(rt, func(done func(driver.Result)) {
			target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, done)
		})
		return warm
	}
	return measure(false), measure(true)
}
