package driver

import (
	"time"

	"aitax/internal/nn"
	"aitax/internal/plan"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

// Partition is a contiguous op run assigned to one target: one step of
// the partitioned plan a framework (TFLite with a delegate, NNAPI)
// executes.
type Partition struct {
	Target Target
	Ops    []*nn.Op
	// Costs is the precomputed per-op device-time schedule for Ops on
	// Target (from the shared plan cache); nil recomputes per execution.
	Costs []time.Duration
}

// Partitions materializes a cached accelerator/CPU assignment of ops
// into a plan of its own: the returned slice belongs to the caller (a
// fault-driven re-plan may rewrite it), while the op and cost slices are
// views of the shared whole-graph arrays.
func Partitions(ops []*nn.Op, segs []plan.Segment, accel Target, accelCosts []time.Duration, cpu Target, cpuCosts []time.Duration) []Partition {
	parts := make([]Partition, 0, len(segs))
	for _, s := range segs {
		t, costs := cpu, cpuCosts
		if s.Accel {
			t, costs = accel, accelCosts
		}
		parts = append(parts, Partition{Target: t, Ops: ops[s.Start:s.End], Costs: costs[s.Start:s.End]})
	}
	return parts
}

// PlanReport aggregates one execution of a partitioned plan.
type PlanReport struct {
	Result
	// Transitions counts partition boundaries crossed.
	Transitions int
	// Fallbacks counts failed partitions the framework's policy absorbed
	// during this execution.
	Fallbacks int
	// FallbackCost is the recovery time those fallbacks charged (the
	// failed attempts' retry time is in Retry).
	FallbackCost time.Duration
}

// Fallback is a framework's policy for partition i of a plan failing.
// Returning false declines: the failure then counts like any other
// result, and the plan runs on. Returning true absorbs it: the runner
// clears the error, keeps the failed attempt's time, and charges cost
// as fallback overhead; the policy must later call resume(j) — after
// its own delay, having re-planned as it sees fit — to continue the
// plan at partition j with no transition charged.
type Fallback func(i int, resume func(j int)) (cost time.Duration, ok bool)

// RunPlan executes *parts in order at precision dt, parenting the
// targets' spans under parent. The first partition starts at once;
// every later one starts after a transition delay on eng, counted in
// the report. A failed partition goes to fallback when it is non-nil.
// parts is read at each step, so a policy may replace the plan. done
// receives the summed report.
func RunPlan(eng *sim.Engine, parts *[]Partition, dt tensor.DType, transition time.Duration,
	parent *telemetry.ActiveSpan, fallback Fallback, done func(PlanReport)) {
	var rep PlanReport
	var run func(i int)
	run = func(i int) {
		p := (*parts)[i]
		p.Target.Execute(p.Ops, p.Costs, dt, parent, func(res Result) {
			if res.Err != nil && fallback != nil {
				if cost, ok := fallback(i, run); ok {
					res.Err = nil
					rep.Result = rep.Result.Add(res)
					rep.Fallbacks++
					rep.FallbackCost += cost
					rep.Overhead += cost
					return
				}
			}
			rep.Result = rep.Result.Add(res)
			if i+1 < len(*parts) {
				rep.Transitions++
				rep.Overhead += transition
				eng.After(transition, func() { run(i + 1) })
			} else if done != nil {
				done(rep)
			}
		})
	}
	if len(*parts) > 0 {
		run(0)
	} else if done != nil {
		done(rep)
	}
}
