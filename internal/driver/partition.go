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

// PlanRunner executes partitioned plans on eng, failed partitions going
// to its fallback when that is non-nil. Its callbacks are built once, so
// a plan run allocates nothing per partition, and a framework that keeps
// its runner allocates nothing per run. A run started while another is
// in flight goes to a spare runner.
type PlanRunner struct {
	eng      *sim.Engine
	fallback Fallback
	spare    *PlanRunner

	// The plan in flight; parts is nil when the runner is idle.
	parts      *[]Partition
	dt         tensor.DType
	transition time.Duration
	parent     *telemetry.ActiveSpan
	done       func(PlanReport)
	rep        PlanReport
	i          int

	onResult func(Result)
	step     func()
	resume   func(int)
}

// NewPlanRunner returns an idle runner on eng with the given fallback
// policy, which may be nil.
func NewPlanRunner(eng *sim.Engine, fallback Fallback) *PlanRunner {
	r := &PlanRunner{eng: eng, fallback: fallback}
	r.onResult, r.step, r.resume = r.result, r.next, r.run
	return r
}

// Run executes *parts in order at precision dt, parenting the targets'
// spans under parent. The first partition starts at once; every later
// one starts after a transition delay, counted in the report. parts is
// read at each step, so a fallback policy may replace the plan. done
// receives the summed report.
func (r *PlanRunner) Run(parts *[]Partition, dt tensor.DType, transition time.Duration,
	parent *telemetry.ActiveSpan, done func(PlanReport)) {
	if r.parts != nil {
		if r.spare == nil {
			r.spare = NewPlanRunner(r.eng, r.fallback)
		}
		r.spare.Run(parts, dt, transition, parent, done)
		return
	}
	if len(*parts) == 0 {
		if done != nil {
			done(PlanReport{})
		}
		return
	}
	r.parts, r.dt, r.transition, r.parent, r.done = parts, dt, transition, parent, done
	r.rep = PlanReport{}
	r.run(0)
}

// run starts partition i.
func (r *PlanRunner) run(i int) {
	r.i = i
	p := (*r.parts)[i]
	p.Target.Execute(p.Ops, p.Costs, r.dt, r.parent, r.onResult)
}

// next starts the partition after a transition.
func (r *PlanRunner) next() { r.run(r.i + 1) }

// result accounts partition r.i's result, then moves on: to the next
// partition, to the fallback, or to done after the last.
func (r *PlanRunner) result(res Result) {
	rep := &r.rep
	if res.Err != nil && r.fallback != nil {
		if cost, ok := r.fallback(r.i, r.resume); ok {
			res.Err = nil
			rep.Result = rep.Result.Add(res)
			rep.Fallbacks++
			rep.FallbackCost += cost
			rep.Overhead += cost
			return
		}
	}
	rep.Result = rep.Result.Add(res)
	if r.i+1 < len(*r.parts) {
		rep.Transitions++
		rep.Overhead += r.transition
		r.eng.After(r.transition, r.step)
		return
	}
	// Idle before done, which may start the next run on this runner.
	out, done := *rep, r.done
	r.parts, r.parent, r.done = nil, nil, nil
	if done != nil {
		done(out)
	}
}
