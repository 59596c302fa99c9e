package trace

import (
	"time"

	"aitax/internal/driver"
	"aitax/internal/nn"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

// DefaultProbeOverhead is the default fractional probe cost — the middle
// of the paper's measured 4-7% range.
const DefaultProbeOverhead = 0.055

// InstrumentedTarget wraps a delegate with driver instrumentation, the
// measurement hooks §III-D quantifies: enabling them adds a 4-7%
// inference-time overhead on hardware-accelerated paths and none on CPU
// paths (the CPU probes ride existing perf counters).
type InstrumentedTarget struct {
	Inner driver.Target
	Eng   *sim.Engine
	// Overhead is the fractional compute-time cost (default ~5.5%).
	Overhead float64
	// Tracer, when set, records each probe charge as a span.
	Tracer *telemetry.Tracer
	// Metrics, when set, accumulates probe overhead observations.
	Metrics *telemetry.Registry
}

// Instrument wraps an accelerator target with the driver probe at a
// fractional overhead (DefaultProbeOverhead covers the paper's 4-7%
// range), recording probe spans on tracer and observations in metrics
// (either may be nil). CPU targets are returned unwrapped, matching the
// paper's observation that the instrumentation "has no effect on
// pre-processing or inference performed on the CPU", and a non-positive
// overhead disables wrapping entirely.
func Instrument(t driver.Target, eng *sim.Engine, overhead float64, tracer *telemetry.Tracer, metrics *telemetry.Registry) driver.Target {
	if overhead <= 0 {
		return t
	}
	if t.Kind() == soc.CPUBig || t.Kind() == soc.CPULittle {
		return t
	}
	return &InstrumentedTarget{Inner: t, Eng: eng, Overhead: overhead, Tracer: tracer, Metrics: metrics}
}

// Name implements driver.Target.
func (t *InstrumentedTarget) Name() string { return t.Inner.Name() + "+probe" }

// Kind implements driver.Target.
func (t *InstrumentedTarget) Kind() soc.Kind { return t.Inner.Kind() }

// Supports implements driver.Target.
func (t *InstrumentedTarget) Supports(op *nn.Op, dt tensor.DType) bool {
	return t.Inner.Supports(op, dt)
}

// OpCosts implements driver.Target: the probe charge is proportional to
// measured compute, so the schedule is the inner target's unchanged.
func (t *InstrumentedTarget) OpCosts(ops []*nn.Op, dt tensor.DType) []time.Duration {
	return t.Inner.OpCosts(ops, dt)
}

// Execute implements driver.Target: the inner execution runs under the
// same parent span, then the probe's logging/timestamping cost is
// charged proportionally as a "probe" span.
func (t *InstrumentedTarget) Execute(ops []*nn.Op, costs []time.Duration, dt tensor.DType, parent *telemetry.ActiveSpan, done func(driver.Result)) {
	t.Inner.Execute(ops, costs, dt, parent, func(res driver.Result) {
		extra := time.Duration(float64(res.Compute) * t.Overhead)
		start := t.Eng.Now()
		t.Eng.After(extra, func() {
			t.Tracer.Emit("probe", "driver", telemetry.TrackCPU, parent, start, t.Eng.Now())
			t.Metrics.Observe("aitax_probe_overhead_ms", float64(extra)/float64(time.Millisecond))
			res.Overhead += extra
			if done != nil {
				done(res)
			}
		})
	})
}
