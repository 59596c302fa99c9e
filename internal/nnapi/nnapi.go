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

// Partition is a contiguous op segment assigned to one target.
type Partition struct {
	Target driver.Target
	Ops    []*nn.Op
	// Costs is the precomputed per-op device-time schedule for Ops on
	// Target (from the shared plan cache); nil recomputes per execution.
	Costs []time.Duration
}

// CompiledModel is the result of model compilation: the partition plan
// plus bookkeeping, computed once per model load (§II-D).
type CompiledModel struct {
	Graph      *nn.Graph
	DType      tensor.DType
	Preference Preference
	Partitions []Partition
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
	assign := func() any {
		return plan.PartitionSegments(ops, dt, func(op *nn.Op, dt tensor.DType) bool {
			return f.Supports(op, dt) && accel.Supports(op, dt)
		})
	}
	var segs []plan.Segment
	if f.Plans != nil && g.Name != "" {
		cm.plans = f.Plans
		cm.planKey = plan.Key{Kind: "nnapi-partition", Model: g.Name, DType: dt,
			Scope: accel.Name(), Platform: f.PlanPlatform, Variant: g.NumOps()}
		segs = f.Plans.Get(cm.planKey, assign).([]plan.Segment)
	} else {
		segs = assign().([]plan.Segment)
	}
	// Materialize per-plan partitions from the shared assignment: the
	// Partitions slice is this plan's own (execution-time fallbacks
	// mutate it), only the index ranges and cost schedules are shared.
	accelCosts := driver.CachedOpCosts(f.Plans, f.PlanPlatform, g.Name, g, dt, accel)
	cpuCosts := driver.CachedOpCosts(f.Plans, f.PlanPlatform, g.Name, g, dt, f.FallbackCPU)
	cm.Partitions = make([]Partition, 0, len(segs))
	for _, s := range segs {
		t, costs := f.FallbackCPU, cpuCosts
		if s.Accel {
			t, costs = accel, accelCosts
		}
		cm.Partitions = append(cm.Partitions, Partition{Target: t, Ops: ops[s.Start:s.End], Costs: costs[s.Start:s.End]})
	}
	quant := dt == tensor.Int8 || dt == tensor.UInt8
	if quant && len(cm.Partitions) > f.MaxQuantPartitions {
		// The vendor driver rejects the shattered plan; NNAPI retreats
		// to its reference implementation for the whole graph.
		cm.ReferenceFallback = true
		cm.Partitions = []Partition{{Target: f.ReferenceCPU, Ops: ops,
			Costs: driver.CachedOpCosts(f.Plans, f.PlanPlatform, g.Name, g, dt, f.ReferenceCPU)}}
	} else if cm.AccelPartitions() > 0 {
		// The vendor driver's accelerator bring-up can fail outright
		// (injected fault); NNAPI re-plans the whole graph onto its CPU
		// fallback and eats the second planning pass.
		if err := f.Faults.DelegateInit(accel.Name()); err != nil {
			cm.DriverInitFailed = true
			cm.Partitions = []Partition{{Target: f.FallbackCPU, Ops: ops, Costs: cpuCosts}}
			cm.invalidate()
			cm.CompileTime += time.Duration(g.NumOps()) * f.CompilePerOp / 2
			f.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", faults.SiteDelegateInit.String()))
			f.Metrics.Inc(telemetry.Labeled("aitax_faults_fallbacks_total", "layer", "nnapi-compile"))
		}
	}
	return cm
}

// invalidate drops this plan's shared partition entry (if it came from
// the cache) after a fault-driven re-plan; other entries stay warm.
func (cm *CompiledModel) invalidate() {
	if cm.plans != nil {
		cm.plans.Invalidate(cm.planKey)
	}
}

// Report aggregates one NNAPI execution.
type Report struct {
	driver.Result
	// Transitions counts partition boundaries crossed.
	Transitions int
	// PerTarget accumulates wall time by target name.
	PerTarget map[string]time.Duration
	// Fallbacks counts partitions that failed on the accelerator and
	// were re-run on the CPU fallback this execution.
	Fallbacks int
	// FallbackCost is the extra handoff/re-planning time those
	// fallbacks burned (the failed attempts' retry time is in Retry).
	FallbackCost time.Duration
}

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
		// the start of the paper's Fig. 6 NNAPI profile.
		cm.probed = true
		if gi, ok := f.AccelInt8.(driver.GraphIniter); ok {
			gi.InitGraph(cm.Graph.Ops(), cm.DType, func(driver.Result) {
				f.Execute(cm, done)
			})
			return
		}
	}
	rep := Report{PerTarget: make(map[string]time.Duration)}
	var runPart func(i int)
	runPart = func(i int) {
		if i >= len(cm.Partitions) {
			if done != nil {
				done(rep)
			}
			return
		}
		p := cm.Partitions[i]
		exec := func() {
			p.Target.Execute(p.Ops, p.Costs, cm.DType, nil, func(res driver.Result) {
				if res.Err != nil && p.Target != f.FallbackCPU && p.Target != f.ReferenceCPU {
					// The accelerator gave up on this partition. Absorb
					// the failed attempt's time (it really passed), pay
					// the handoff + re-planning penalty, move the
					// partition to the CPU fallback for good, and re-run.
					res.Err = nil
					rep.Result = rep.Result.Add(res)
					rep.PerTarget[p.Target.Name()] += res.Total()
					penalty := f.TransitionOverhead + time.Duration(len(p.Ops))*f.CompilePerOp/2
					rep.Fallbacks++
					rep.FallbackCost += penalty
					rep.Overhead += penalty
					f.Tracer.Instant("nnapi-fallback", "faults", telemetry.TrackCPU, nil, f.eng.Now())
					f.Metrics.Inc(telemetry.Labeled("aitax_faults_fallbacks_total", "layer", "nnapi"))
					f.Metrics.Observe("aitax_faults_fallback_ms", float64(penalty)/float64(time.Millisecond))
					cm.Partitions[i].Target = f.FallbackCPU
					cm.Partitions[i].Costs = nil // accel schedule no longer applies
					cm.invalidate()
					f.eng.After(penalty, func() {
						f.FallbackCPU.Execute(p.Ops, nil, cm.DType, nil, func(res2 driver.Result) {
							rep.Result = rep.Result.Add(res2)
							rep.PerTarget[f.FallbackCPU.Name()] += res2.Total()
							runPart(i + 1)
						})
					})
					return
				}
				rep.Result = rep.Result.Add(res)
				rep.PerTarget[p.Target.Name()] += res.Total()
				runPart(i + 1)
			})
		}
		if i > 0 {
			rep.Transitions++
			rep.Overhead += f.TransitionOverhead
			f.eng.After(f.TransitionOverhead, exec)
		} else {
			exec()
		}
	}
	runPart(0)
}
