// Package nnapi models Android's Neural Networks API as the paper
// describes it (§II-C/D): model compilation with greedy partitioning
// against vendor-driver op-support matrices, execution-preference-driven
// device assignment, and the CPU fallback path. The package reproduces
// the framework behaviours the paper measures — partial offload
// (Inception running half on CPU), and the quantized-model pathology
// where lagging INT8 driver support shatters a graph and NNAPI retreats
// to its single-threaded reference CPU implementation (Figs. 5 and 6).
package nnapi

import (
	"fmt"
	"time"

	"aitax/internal/driver"
	"aitax/internal/faults"
	"aitax/internal/nn"
	"aitax/internal/plan"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

// Preference mirrors NNAPI's execution preferences.
type Preference int

// Execution preferences; the benchmarks default to FastSingleAnswer as
// the paper's setup does (§III-B).
const (
	FastSingleAnswer Preference = iota
	SustainedSpeed
	LowPower
)

// String names the preference the way the NDK constants read.
func (p Preference) String() string {
	switch p {
	case FastSingleAnswer:
		return "FAST_SINGLE_ANSWER"
	case SustainedSpeed:
		return "SUSTAINED_SPEED"
	case LowPower:
		return "LOW_POWER"
	default:
		return fmt.Sprintf("PREFERENCE(%d)", int(p))
	}
}

// CompiledModel is the result of model compilation: the partition plan
// plus bookkeeping, computed once per model load (§II-D).
type CompiledModel struct {
	Graph      *nn.Graph
	DType      tensor.DType
	Preference Preference
	Partitions []driver.Partition
	// CompileTime is the one-time compilation/partitioning cost.
	CompileTime time.Duration
	// ReferenceFallback marks plans NNAPI abandoned for the reference
	// CPU path (the Fig. 5 pathology).
	ReferenceFallback bool
	// DriverInitFailed marks plans whose vendor driver failed to bring
	// the accelerator up (injected delegate-init fault); the whole graph
	// was re-planned onto the CPU fallback during compilation.
	DriverInitFailed bool

	probed bool // the one-time DSP attempt of a fallback plan happened
	// run executes Partitions; built by the first Execute.
	run *driver.PlanRunner

	// plans/planKey identify the shared cache entry this plan's
	// partition assignment came from, so a fault-driven re-plan can
	// invalidate exactly that entry. Nil/zero when compiled privately.
	plans   *plan.Cache
	planKey plan.Key
}

// AccelPartitions counts partitions on non-CPU targets.
func (cm *CompiledModel) AccelPartitions() int {
	n := 0
	for _, p := range cm.Partitions {
		if p.Target.Kind() != soc.CPUBig && p.Target.Kind() != soc.CPULittle {
			n++
		}
	}
	return n
}

// OffloadedFraction returns the fraction of FLOPs assigned off-CPU.
func (cm *CompiledModel) OffloadedFraction() float64 {
	var total, off int64
	for _, p := range cm.Partitions {
		for _, op := range p.Ops {
			f := op.FLOPs()
			total += f
			if p.Target.Kind() != soc.CPUBig && p.Target.Kind() != soc.CPULittle {
				off += f
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(off) / float64(total)
}

// Framework is one process's NNAPI runtime instance.
type Framework struct {
	eng *sim.Engine
	// Accel is the vendor driver's accelerator target for each
	// precision class: DSP for quantized graphs, GPU for fp32.
	AccelFP32 driver.Target
	AccelInt8 driver.Target
	// FallbackCPU runs ops the driver rejects inside a partitioned plan.
	FallbackCPU driver.Target
	// ReferenceCPU is the slow single-threaded path whole graphs retreat
	// to when a quantized plan shatters.
	ReferenceCPU driver.Target
	// Supports is the vendor driver's op-support matrix.
	Supports func(*nn.Op, tensor.DType) bool

	// TransitionOverhead is the tensor-handoff cost at each partition
	// boundary (buffer copies between runtimes).
	TransitionOverhead time.Duration
	// CompilePerOp scales the one-time compilation cost.
	CompilePerOp time.Duration
	// MaxQuantPartitions is the shatter threshold beyond which a
	// quantized plan is abandoned for the reference path.
	MaxQuantPartitions int

	// Tracer, when set, records fallback events. Nil disables.
	Tracer *telemetry.Tracer
	// Metrics, when set, counts injected faults and fallbacks. Nil
	// disables.
	Metrics *telemetry.Registry
	// Faults, when set, injects driver-init failures at compile time and
	// lets partition execution errors trigger the CPU fallback. Nil
	// keeps the framework infallible.
	Faults *faults.Injector

	// Plans, when set, shares partition assignments and cost schedules
	// with every other standard-built framework in the process (the lab
	// workers all hit the same entries). Only runtimes that build the
	// framework from the standard support matrices set this; custom
	// frameworks compile privately.
	Plans *plan.Cache
	// PlanPlatform names the platform in shared cache keys.
	PlanPlatform string
}

// Config carries the targets for New.
type Config struct {
	Engine       *sim.Engine
	AccelFP32    driver.Target
	AccelInt8    driver.Target
	FallbackCPU  driver.Target
	ReferenceCPU driver.Target
	Supports     func(*nn.Op, tensor.DType) bool
}

// New assembles a framework with the defaults used throughout the
// experiments.
func New(cfg Config) *Framework {
	if cfg.Engine == nil || cfg.AccelFP32 == nil || cfg.AccelInt8 == nil || cfg.FallbackCPU == nil || cfg.ReferenceCPU == nil {
		panic("nnapi: engine and all targets must be provided")
	}
	supports := cfg.Supports
	if supports == nil {
		supports = driver.NNAPIVendorSupports
	}
	return &Framework{
		eng:                cfg.Engine,
		AccelFP32:          cfg.AccelFP32,
		AccelInt8:          cfg.AccelInt8,
		FallbackCPU:        cfg.FallbackCPU,
		ReferenceCPU:       cfg.ReferenceCPU,
		Supports:           supports,
		TransitionOverhead: 120 * time.Microsecond,
		CompilePerOp:       180 * time.Microsecond,
		MaxQuantPartitions: 12,
	}
}

// accelFor picks the accelerator the execution preference implies:
// quantized graphs go to the DSP; fp32 graphs go to the GPU under the
// throughput preferences and to the DSP (slow but frugal fp16-style
// path) under LOW_POWER. SUSTAINED_SPEED differs from
// FAST_SINGLE_ANSWER only in DVFS governor behaviour, which the device
// models do not resolve, so the two share a device assignment.
func (f *Framework) accelFor(dt tensor.DType, pref Preference) driver.Target {
	if dt == tensor.Int8 || dt == tensor.UInt8 {
		return f.AccelInt8
	}
	if pref == LowPower {
		return f.AccelInt8
	}
	return f.AccelFP32
}

// Compile partitions the graph across the accelerator and the CPU
// fallback: maximal runs of driver-supported ops go to the accelerator,
// everything else to the CPU. A quantized plan that shatters past
// MaxQuantPartitions is abandoned for the reference CPU path.
func (f *Framework) Compile(g *nn.Graph, dt tensor.DType, pref Preference) *CompiledModel {
	accel := f.accelFor(dt, pref)
	cm := &CompiledModel{
		Graph:       g,
		DType:       dt,
		Preference:  pref,
		CompileTime: time.Duration(g.NumOps()) * f.CompilePerOp,
	}
	ops := g.Ops()
	if g.Name != "" {
		cm.plans = f.Plans
		cm.planKey = plan.Key{Kind: "nnapi-partition", Model: g.Name, DType: dt,
			Scope: accel.Name(), Platform: f.PlanPlatform, Variant: g.NumOps()}
	}
	segs := cm.plans.Get(cm.planKey, func() any {
		return plan.PartitionSegments(ops, dt, func(op *nn.Op, dt tensor.DType) bool {
			return f.Supports(op, dt) && accel.Supports(op, dt)
		})
	}).([]plan.Segment)
	// The Partitions slice is this plan's own (execution-time fallbacks
	// mutate it); only the index ranges and cost schedules are shared.
	accelCosts := driver.CachedOpCosts(f.Plans, f.PlanPlatform, g.Name, g, dt, accel)
	cpuCosts := driver.CachedOpCosts(f.Plans, f.PlanPlatform, g.Name, g, dt, f.FallbackCPU)
	cm.Partitions = driver.Partitions(ops, segs, accel, accelCosts, f.FallbackCPU, cpuCosts)
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	if quant && len(cm.Partitions) > f.MaxQuantPartitions {
		// The vendor driver rejects the shattered plan; NNAPI retreats
		// to its reference implementation for the whole graph.
		cm.ReferenceFallback = true
		cm.Partitions = []driver.Partition{{Target: f.ReferenceCPU, Ops: ops,
			Costs: driver.CachedOpCosts(f.Plans, f.PlanPlatform, g.Name, g, dt, f.ReferenceCPU)}}
	} else if cm.AccelPartitions() > 0 {
		// The vendor driver's accelerator bring-up can fail outright
		// (injected fault); NNAPI re-plans the whole graph onto its CPU
		// fallback and eats the second planning pass.
		if err := f.Faults.DelegateInit(accel.Name()); err != nil {
			cm.DriverInitFailed = true
			cm.Partitions = []driver.Partition{{Target: f.FallbackCPU, Ops: ops, Costs: cpuCosts}}
			cm.plans.Invalidate(cm.planKey)
			cm.CompileTime += time.Duration(g.NumOps()) * f.CompilePerOp / 2
			f.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", faults.SiteDelegateInit.String()))
			f.Metrics.Inc(telemetry.Labeled("aitax_faults_fallbacks_total", "layer", "nnapi-compile"))
		}
	}
	return cm
}

// Report aggregates one NNAPI execution; Fallbacks counts partitions
// that failed on the accelerator and were re-run on the CPU fallback.
type Report = driver.PlanReport

// Execute runs a compiled plan: partitions execute in order, each
// boundary paying the transition overhead. A partition that fails on
// the accelerator (injected fault, retries exhausted) is re-planned
// onto the CPU fallback — permanently, like production NNAPI dropping a
// misbehaving driver — and re-run there after a handoff penalty. done
// receives the aggregated report.
func (f *Framework) Execute(cm *CompiledModel, done func(Report)) {
	if cm.ReferenceFallback && !cm.probed {
		// The driver's one-time attempt to bring the graph up on the
		// DSP before rejecting it — the brief CDSP utilization spike at
		// the start of the paper's Fig. 6 NNAPI profile. Its time is
		// part of this execution; its failure, if any, is not.
		cm.probed = true
		if gi, ok := f.AccelInt8.(driver.GraphIniter); ok {
			gi.InitGraph(cm.Graph.Ops(), cm.DType, func(probe driver.Result) {
				probe.Err = nil
				f.Execute(cm, func(rep Report) {
					rep.Result = probe.Add(rep.Result)
					if done != nil {
						done(rep)
					}
				})
			})
			return
		}
	}
	if cm.run == nil {
		cm.run = driver.NewPlanRunner(f.eng, func(i int, resume func(int)) (time.Duration, bool) {
			return f.fallback(cm, i, resume)
		})
	}
	cm.run.Run(&cm.Partitions, cm.DType, f.TransitionOverhead, nil, done)
}

// fallback is Execute's policy for partition i of cm failing.
func (f *Framework) fallback(cm *CompiledModel, i int, resume func(int)) (time.Duration, bool) {
	p := &cm.Partitions[i]
	if p.Target == f.FallbackCPU || p.Target == f.ReferenceCPU {
		return 0, false
	}
	// The accelerator gave up on this partition. Pay the handoff
	// + re-planning penalty, move the partition to the CPU
	// fallback for good, and re-run it there.
	penalty := f.TransitionOverhead + time.Duration(len(p.Ops))*f.CompilePerOp/2
	f.Tracer.Instant("nnapi-fallback", "faults", telemetry.TrackCPU, nil, f.eng.Now())
	f.Metrics.Inc(telemetry.Labeled("aitax_faults_fallbacks_total", "layer", "nnapi"))
	f.Metrics.Observe("aitax_faults_fallback_ms", float64(penalty)/float64(time.Millisecond))
	*p = driver.Partition{Target: f.FallbackCPU, Ops: p.Ops} // the accel schedule no longer applies
	cm.plans.Invalidate(cm.planKey)
	f.eng.After(penalty, func() { resume(i) })
	return penalty, true
}
