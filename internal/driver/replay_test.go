package driver

import (
	"testing"
	"time"

	"aitax/internal/nn"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

// nopListener observes nothing; subscribing it turns replay off.
type nopListener struct{}

func (nopListener) OnRun(*sched.Thread, *sched.Core, sim.Time, time.Duration)   {}
func (nopListener) OnMigrate(*sched.Thread, *sched.Core, *sched.Core, sim.Time) {}

// skipWithoutShortcuts skips a test of a shortcut's own mechanism in a
// noshortcuts build, where it cannot run.
func skipWithoutShortcuts(t *testing.T) {
	t.Helper()
	if !sched.Shortcuts {
		t.Skip("built with the noshortcuts tag")
	}
}

// cpuRun is the outcome of a benchmark-style loop on one CPU target.
type cpuRun struct {
	results    []Result
	ends       []sim.Time
	now        sim.Time
	switches   int
	migrations int
	busy       []time.Duration
	cpu        []time.Duration
	hits       int
	events     uint64
}

// benchLoop invokes the segment n times on a fresh rig, each time after
// a short input-generation burst when gen is set (which context-switches
// a worker's core between invokes, as the benchmark tool does).
func benchLoop(n int, gen bool, setup func(r *rig, cpu *CPUTarget), mk func(r *rig) *CPUTarget) cpuRun {
	r := newRig()
	cpu := mk(r)
	if setup != nil {
		setup(r, cpu)
	}
	ops := smallGraph().Ops()
	costs := cpu.OpCosts(ops, tensor.Float32)
	genT := r.sch.Spawn("bench-gen", sched.BigOnly)
	var out cpuRun
	var next func(i int)
	next = func(i int) {
		if i == n {
			return
		}
		invoke := func() {
			cpu.Execute(ops, costs, tensor.Float32, nil, func(res Result) {
				out.results = append(out.results, res)
				out.ends = append(out.ends, r.eng.Now())
				next(i + 1)
			})
		}
		if gen {
			genT.Exec(120*time.Microsecond, invoke)
			return
		}
		invoke()
	}
	next(0)
	out.now = r.eng.Run()
	out.account(r, cpu, genT)
	return out
}

// account fills in the scheduler's accounting and the replay hits after
// the engine has run dry.
func (out *cpuRun) account(r *rig, cpu *CPUTarget, others ...*sched.Thread) {
	out.switches, out.migrations = r.sch.Switches(), r.sch.Migrations()
	for _, c := range r.sch.Cores() {
		out.busy = append(out.busy, c.BusyTime())
	}
	for _, th := range append(cpu.threads, others...) {
		out.cpu = append(out.cpu, th.CPUTime())
	}
	if cpu.replay != nil {
		out.hits = cpu.replay.hits
	}
	out.events = r.eng.Scheduled()
}

func sameRun(t *testing.T, name string, simd, rep cpuRun) {
	t.Helper()
	if simd.now != rep.now || simd.switches != rep.switches || simd.migrations != rep.migrations {
		t.Errorf("%s: end/switches/migrations simulated %v/%d/%d, replayed %v/%d/%d", name,
			simd.now, simd.switches, simd.migrations, rep.now, rep.switches, rep.migrations)
	}
	for i := range simd.busy {
		if simd.busy[i] != rep.busy[i] {
			t.Errorf("%s: core %d busy simulated %v, replayed %v", name, i, simd.busy[i], rep.busy[i])
		}
	}
	for i := range simd.cpu {
		if simd.cpu[i] != rep.cpu[i] {
			t.Errorf("%s: thread %d CPU time simulated %v, replayed %v", name, i, simd.cpu[i], rep.cpu[i])
		}
	}
	if len(simd.results) != len(rep.results) {
		t.Fatalf("%s: %d results simulated, %d replayed", name, len(simd.results), len(rep.results))
	}
	for i := range simd.results {
		if simd.results[i] != rep.results[i] || simd.ends[i] != rep.ends[i] {
			t.Fatalf("%s: invoke %d simulated %+v at %v, replayed %+v at %v", name, i,
				simd.results[i], simd.ends[i], rep.results[i], rep.ends[i])
		}
	}
}

func fourThreads(r *rig) *CPUTarget { return NewCPUTarget("cpu", r.sch, &r.p.Big, 4) }

func reference(r *rig) *CPUTarget { return NewReferenceCPUTarget("ref", r.sch, &r.p.Big) }

func subscribeNop(r *rig, _ *CPUTarget) { r.sch.Subscribe(nopListener{}) }

func TestCPUReplayMatchesSimulation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		gen       bool
		mk        func(r *rig) *CPUTarget
		migratory bool
	}{
		{"4 sticky threads", false, fourThreads, false},
		{"4 sticky threads, gen between invokes", true, fourThreads, false},
		{"reference (migratory)", false, reference, true},
		{"reference (migratory), gen between invokes", true, reference, true},
	} {
		simd := benchLoop(30, tc.gen, subscribeNop, tc.mk)
		rep := benchLoop(30, tc.gen, nil, tc.mk)
		sameRun(t, tc.name, simd, rep)
		if simd.hits != 0 {
			t.Errorf("%s: %d replays with a listener subscribed", tc.name, simd.hits)
		}
		if sched.Shortcuts && rep.hits == 0 {
			t.Errorf("%s: no segment was replayed", tc.name)
		}
		if tc.gen && simd.switches == 0 {
			t.Errorf("%s: no context switch; the case is vacuous", tc.name)
		}
		if tc.migratory && simd.migrations == 0 {
			t.Errorf("%s: no migration; the case is vacuous", tc.name)
		}
	}
}

func TestCPUReplayOffUnlessQuiet(t *testing.T) {
	dvfs := func(r *rig) *CPUTarget {
		cfg := sched.DefaultConfig()
		cfg.DVFS = true
		r.sch = sched.New(r.eng, cfg)
		return fourThreads(r)
	}
	for _, tc := range []struct {
		name  string
		mk    func(r *rig) *CPUTarget
		setup func(r *rig, cpu *CPUTarget)
	}{
		{"listener", fourThreads, subscribeNop},
		{"tracer", fourThreads, func(r *rig, cpu *CPUTarget) { cpu.Tracer = telemetry.NewTracer(r.eng.Now) }},
		{"pending event", fourThreads, func(r *rig, _ *CPUTarget) { r.eng.After(time.Hour, func() {}) }},
		{"busy core", fourThreads, func(r *rig, _ *CPUTarget) {
			r.sch.Spawn("bg", sched.LittleOnly).Exec(time.Second, nil)
		}},
		{"dvfs", dvfs, nil},
	} {
		if run := benchLoop(10, true, tc.setup, tc.mk); run.hits != 0 || len(run.results) != 10 {
			t.Errorf("%s: %d of %d segments replayed, want 0 of 10", tc.name, run.hits, len(run.results))
		}
	}
}

func TestCPUReplayAllocatesNothing(t *testing.T) {
	skipWithoutShortcuts(t)
	r := newRig()
	cpu := fourThreads(r)
	ops := smallGraph().Ops()
	costs := cpu.OpCosts(ops, tensor.Float32)
	done := func(Result) {}
	for i := 0; i < 3; i++ {
		cpu.Execute(ops, costs, tensor.Float32, nil, done)
		r.eng.Run()
	}
	hits := cpu.replay.hits
	allocs := testing.AllocsPerRun(100, func() {
		cpu.Execute(ops, costs, tensor.Float32, nil, done)
		r.eng.Run()
	})
	if cpu.replay.hits <= hits {
		t.Fatal("the steady segment was not replayed")
	}
	if allocs != 0 {
		t.Fatalf("a replayed segment allocates %.1f times, want 0", allocs)
	}
}

// TestCPUReplayMemoEviction runs more distinct segments than the memo
// holds, so the first ones are evicted, then revisits the evicted ones
// twice and some that stayed. Every result and all the scheduler
// accounting must equal a run with replay off, and the memo index must
// hold exactly the keys in the memo after every segment.
func TestCPUReplayMemoEviction(t *testing.T) {
	b := nn.NewBuilder("deep", 8, 8, 8)
	for i := 0; i < maxReplayMemo; i++ {
		b.Conv(8, 3, 1).ReLU6()
	}
	ops := b.Graph().Ops()
	const evicted = 8
	var order []int
	for j := 0; j < maxReplayMemo+evicted; j++ {
		order = append(order, j)
	}
	for _, from := range []int{0, 0, 3 * evicted} {
		for j := from; j < from+evicted; j++ {
			order = append(order, j)
		}
	}
	run := func(replay bool) cpuRun {
		r := newRig()
		cpu := fourThreads(r)
		if !replay {
			r.sch.Subscribe(nopListener{})
		}
		costs := cpu.OpCosts(ops, tensor.Float32)
		var out cpuRun
		var next func(i int)
		next = func(i int) {
			if i == len(order) {
				return
			}
			j := order[i]
			cpu.Execute(ops[j:j+1], costs[j:j+1], tensor.Float32, nil, func(res Result) {
				out.results = append(out.results, res)
				out.ends = append(out.ends, r.eng.Now())
				if c := cpu.replay; c != nil {
					checkMemoIndex(t, c)
				}
				next(i + 1)
			})
		}
		next(0)
		out.now = r.eng.Run()
		out.account(r, cpu)
		return out
	}
	simd, rep := run(false), run(true)
	sameRun(t, "memo eviction", simd, rep)
	// The second revisit of the evicted segments and the visit to the
	// ones that stayed must replay.
	if sched.Shortcuts && rep.hits < 2*evicted {
		t.Fatalf("%d replays, want at least %d", rep.hits, 2*evicted)
	}
}

// checkMemoIndex fails unless c's index maps exactly the summaries of
// the keys in its memo, each to its own slot.
func checkMemoIndex(t *testing.T, c *cpuReplay) {
	t.Helper()
	if len(c.memo) > maxReplayMemo || len(c.index) != len(c.memo) {
		t.Fatalf("memo holds %d entries and its index %d, want equal and at most %d",
			len(c.memo), len(c.index), maxReplayMemo)
	}
	for ix, i := range c.index {
		if e := &c.memo[i]; e.ix != ix || e.key.index() != ix {
			t.Fatalf("index entry %+v points at slot %d, which holds %+v", ix, i, e.ix)
		}
	}
}

// TestCPUFastForwardMatchesSimulation runs segments that replay cannot
// take but whose ops run alone at their barriers: behind a far pending
// event, and beside a thread on a little core whose slice ends cut each
// run of ops short. Every result and all scheduler accounting must
// equal a run with both shortcuts off.
func TestCPUFastForwardMatchesSimulation(t *testing.T) {
	far := func(r *rig, _ *CPUTarget) { r.eng.After(time.Hour, func() {}) }
	little := func(r *rig, _ *CPUTarget) { r.sch.Spawn("bg", sched.LittleOnly).Exec(time.Second, nil) }
	for _, tc := range []struct {
		name  string
		gen   bool
		setup func(r *rig, cpu *CPUTarget)
	}{
		{"far pending event", false, far},
		{"far pending event, gen between invokes", true, far},
		{"busy little core, gen between invokes", true, little},
	} {
		on := benchLoop(30, tc.gen, tc.setup, fourThreads)
		off := benchLoop(30, tc.gen, func(r *rig, cpu *CPUTarget) { tc.setup(r, cpu); subscribeNop(r, cpu) }, fourThreads)
		sameRun(t, tc.name, off, on)
		if on.hits != 0 {
			t.Errorf("%s: %d segments replayed; the case does not reach the fast path", tc.name, on.hits)
		}
		if sched.Shortcuts && on.events >= off.events {
			t.Errorf("%s: the fast path saved no events (%d on, %d off); the comparison is vacuous", tc.name, on.events, off.events)
		}
	}
}

// An event scheduled inside a run of ops applied at once could see the
// workers' cores mid-run: the window must fail loudly.
func TestCPUFastForwardPanicsWhenOverlapped(t *testing.T) {
	skipWithoutShortcuts(t)
	r := newRig()
	cpu := fourThreads(r)
	ops := smallGraph().Ops()
	r.eng.After(time.Hour, func() {}) // keeps replay off
	cpu.Execute(ops, cpu.OpCosts(ops, tensor.Float32), tensor.Float32, nil, nil)
	for range cpu.threads {
		r.eng.Step() // the first op's slices; its barrier applies the rest
	}
	if p := r.eng.Pending(); p != 2 {
		t.Fatalf("%d events pending after the first op, want the far one and the window's", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an overlapped run of ops did not panic")
		}
	}()
	r.eng.After(time.Nanosecond, func() {})
	r.eng.Run()
}

func TestCPUFastForwardAllocatesNothing(t *testing.T) {
	skipWithoutShortcuts(t)
	r := newRig()
	cpu := fourThreads(r)
	ops := smallGraph().Ops()
	costs := cpu.OpCosts(ops, tensor.Float32)
	r.eng.After(time.Hour, func() {}) // keeps replay off
	finished := false
	done := func(Result) { finished = true }
	segment := func() {
		finished = false
		cpu.Execute(ops, costs, tensor.Float32, nil, done)
		for !finished {
			r.eng.Step()
		}
	}
	for i := 0; i < 3; i++ {
		segment()
	}
	seq := r.eng.Scheduled()
	allocs := testing.AllocsPerRun(100, segment)
	if events := r.eng.Scheduled() - seq; events >= 101*uint64(len(ops)*len(cpu.threads)) {
		t.Fatalf("101 segments scheduled %d events; the fast path was not taken", events)
	}
	if allocs != 0 {
		t.Fatalf("a fast-forwarded segment allocates %.1f times, want 0", allocs)
	}
}
