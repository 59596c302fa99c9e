package driver

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"aitax/internal/nn"
	"aitax/internal/plan"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

// fakeTarget takes a fixed time per execution and fails its first
// len(errs) executions with errs, in order. Every start goes to log.
type fakeTarget struct {
	name string
	eng  *sim.Engine
	d    time.Duration
	errs []error
	log  *[]string
}

func (f *fakeTarget) Name() string                                   { return f.name }
func (f *fakeTarget) Kind() soc.Kind                                 { return soc.CPUBig }
func (f *fakeTarget) Supports(*nn.Op, tensor.DType) bool             { return true }
func (f *fakeTarget) OpCosts([]*nn.Op, tensor.DType) []time.Duration { return nil }

func (f *fakeTarget) Execute(_ []*nn.Op, _ []time.Duration, _ tensor.DType, _ *telemetry.ActiveSpan, done func(Result)) {
	*f.log = append(*f.log, f.name+"@"+time.Duration(f.eng.Now()).String())
	var err error
	if len(f.errs) > 0 {
		err, f.errs = f.errs[0], f.errs[1:]
	}
	f.eng.After(f.d, func() { done(Result{Compute: f.d, Err: err}) })
}

func TestRunPlan(t *testing.T) {
	const (
		ms         = time.Millisecond
		transition = 100 * time.Microsecond
		penalty    = 500 * time.Microsecond
	)
	errA, errB := errors.New("a"), errors.New("b")
	for _, tc := range []struct {
		name string
		// errs[i] are partition i's failures.
		errs [3][]error
		// absorb makes the policy move a failed partition to the spare
		// target and resume there after penalty; otherwise it declines.
		absorb bool
		starts []string
		want   PlanReport
	}{
		{
			name:   "no failure",
			starts: []string{"p0@0s", "p1@1.1ms", "p2@2.2ms"},
			want: PlanReport{Result: Result{Compute: 3 * ms, Overhead: 2 * transition},
				Transitions: 2},
		},
		{
			// The failed attempt's time stays; the re-run of partition
			// 1 starts after the penalty alone, and partition 2 still
			// pays its boundary.
			name:   "absorbed failure",
			errs:   [3][]error{1: {errA}},
			absorb: true,
			starts: []string{"p0@0s", "p1@1.1ms", "spare@2.6ms", "p2@3.7ms"},
			want: PlanReport{Result: Result{Compute: 4 * ms, Overhead: 2*transition + penalty},
				Transitions: 2, Fallbacks: 1, FallbackCost: penalty},
		},
		{
			name:   "declined failures",
			errs:   [3][]error{1: {errA}, 2: {errB}},
			starts: []string{"p0@0s", "p1@1.1ms", "p2@2.2ms"},
			want: PlanReport{Result: Result{Compute: 3 * ms, Overhead: 2 * transition, Err: errA},
				Transitions: 2},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine()
			var log []string
			parts := make([]Partition, 3)
			for i := range parts {
				parts[i].Target = &fakeTarget{name: "p" + string(rune('0'+i)), eng: eng, d: ms, errs: tc.errs[i], log: &log}
			}
			spare := &fakeTarget{name: "spare", eng: eng, d: ms, log: &log}
			policy := func(i int, resume func(int)) (time.Duration, bool) {
				if !tc.absorb {
					return 0, false
				}
				parts[i].Target = spare
				eng.After(penalty, func() { resume(i) })
				return penalty, true
			}
			var got PlanReport
			calls := 0
			NewPlanRunner(eng, policy).Run(&parts, tensor.Float32, transition, nil, func(r PlanReport) { got = r; calls++ })
			eng.Run()
			if calls != 1 {
				t.Fatalf("done called %d times, want 1", calls)
			}
			if !reflect.DeepEqual(log, tc.starts) {
				t.Errorf("starts = %v, want %v", log, tc.starts)
			}
			if got != tc.want {
				t.Errorf("report = %+v, want %+v", got, tc.want)
			}
		})
	}
}

// TestPlanRunnerOverlap starts a second plan on a runner whose first is
// still in flight, and a third from the first's done: each must report
// as if it ran on a runner of its own.
func TestPlanRunnerOverlap(t *testing.T) {
	const ms = time.Millisecond
	eng := sim.NewEngine()
	var log []string
	plan := func(name string, n int) []Partition {
		parts := make([]Partition, n)
		for i := range parts {
			parts[i].Target = &fakeTarget{name: name, eng: eng, d: ms, log: &log}
		}
		return parts
	}
	a, b, c := plan("a", 3), plan("b", 2), plan("c", 1)
	r := NewPlanRunner(eng, nil)
	var reps []PlanReport
	r.Run(&a, tensor.Float32, ms, nil, func(rep PlanReport) {
		reps = append(reps, rep)
		r.Run(&c, tensor.Float32, ms, nil, func(rep PlanReport) { reps = append(reps, rep) })
	})
	r.Run(&b, tensor.Float32, ms, nil, func(rep PlanReport) { reps = append(reps, rep) })
	eng.Run()
	want := []PlanReport{
		{Result: Result{Compute: 2 * ms, Overhead: ms}, Transitions: 1},
		{Result: Result{Compute: 3 * ms, Overhead: 2 * ms}, Transitions: 2},
		{Result: Result{Compute: ms}},
	}
	if !reflect.DeepEqual(reps, want) {
		t.Fatalf("reports = %+v, want %+v", reps, want)
	}
	if starts := []string{"a@0s", "b@0s", "a@2ms", "b@2ms", "a@4ms", "c@5ms"}; !reflect.DeepEqual(log, starts) {
		t.Fatalf("starts = %v, want %v", log, starts)
	}
}

func TestPartitionsMaterializesSegments(t *testing.T) {
	ops := smallGraph().Ops() // conv, relu6, conv, relu6
	accel, cpu := &fakeTarget{name: "accel"}, &fakeTarget{name: "cpu"}
	accelCosts := []time.Duration{1, 2, 3, 4}
	cpuCosts := []time.Duration{10, 20, 30, 40}
	segs := []plan.Segment{{Accel: true, Start: 0, End: 2}, {Start: 2, End: 3}, {Accel: true, Start: 3, End: 4}}
	parts := Partitions(ops, segs, accel, accelCosts, cpu, cpuCosts)
	want := []Partition{
		{Target: accel, Ops: ops[0:2], Costs: accelCosts[0:2]},
		{Target: cpu, Ops: ops[2:3], Costs: cpuCosts[2:3]},
		{Target: accel, Ops: ops[3:4], Costs: accelCosts[3:4]},
	}
	if !reflect.DeepEqual(parts, want) {
		t.Fatalf("partitions = %+v, want %+v", parts, want)
	}
}
