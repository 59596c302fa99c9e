package sched

import (
	"testing"
	"time"

	"aitax/internal/sim"
)

// nopListener observes nothing; subscribing it turns replay off.
type nopListener struct{}

func (nopListener) OnRun(*Thread, *Core, sim.Time, time.Duration) {}
func (nopListener) OnMigrate(*Thread, *Core, *Core, sim.Time)     {}

// skipWithoutShortcuts skips a test of a shortcut's own mechanism in a
// noshortcuts build, where it cannot run. The tests that compare a
// shortcut with the simulation still run there.
func skipWithoutShortcuts(t *testing.T) {
	t.Helper()
	if !Shortcuts {
		t.Skip("built with the noshortcuts tag")
	}
}

// stretchRig runs "invokes": each op fans one burst out to every worker
// and joins before the next. With a Replayer it memoises every quiet
// invoke by Fingerprint, the way the CPU delegate does.
type stretchRig struct {
	eng     *sim.Engine
	s       *Scheduler
	workers []*Thread
	r       *Replayer
	memo    map[Fingerprint]*Effect
	ends    []sim.Time // when each invoke finished
	hits    int        // invokes replayed
}

func newStretchRig(replay bool, spawn func(s *Scheduler, i int) *Thread, n int) *stretchRig {
	eng := sim.NewEngine()
	g := &stretchRig{eng: eng, s: New(eng, DefaultConfig()), memo: map[Fingerprint]*Effect{}}
	for i := 0; i < n; i++ {
		g.workers = append(g.workers, spawn(g.s, i))
	}
	if !replay {
		g.s.Subscribe(nopListener{})
	}
	g.r = g.s.NewReplayer(g.workers)
	return g
}

func (g *stretchRig) invoke(ops []time.Duration, done func()) {
	fp, quiet := g.s.Fingerprint(g.workers)
	finish := func() {
		g.ends = append(g.ends, g.eng.Now())
		done()
	}
	if quiet {
		if e, ok := g.memo[fp]; ok {
			g.hits++
			g.r.Replay(e, finish)
			return
		}
		g.r.Begin()
	}
	var step func(i int)
	step = func(i int) {
		if i == len(ops) {
			if quiet {
				e := new(Effect)
				if g.r.End(e) {
					g.memo[fp] = e
				}
			}
			finish()
			return
		}
		left := len(g.workers)
		for _, w := range g.workers {
			w.Exec(ops[i], func() {
				if left--; left == 0 {
					step(i + 1)
				}
			})
		}
	}
	step(0)
}

// loop runs n invokes back to back; between invokes, when other is
// set, it runs a short burst first (the benchmark tool's input
// generation), which context-switches a worker's core.
func (g *stretchRig) loop(n int, ops []time.Duration, other *Thread) {
	var next func(i int)
	next = func(i int) {
		if i == n {
			return
		}
		if other != nil {
			other.Exec(150*time.Microsecond, func() { g.invoke(ops, func() { next(i + 1) }) })
			return
		}
		g.invoke(ops, func() { next(i + 1) })
	}
	next(0)
	g.eng.Run()
}

// sameState fails unless two rigs left identical scheduler state.
func sameState(t *testing.T, simd, rep *stretchRig, extra ...[2]*Thread) {
	t.Helper()
	if simd.eng.Now() != rep.eng.Now() {
		t.Errorf("end time: simulated %v, replayed %v", simd.eng.Now(), rep.eng.Now())
	}
	if simd.s.switches != rep.s.switches || simd.s.migrations != rep.s.migrations || simd.s.rrNext != rep.s.rrNext {
		t.Errorf("switches/migrations/rrNext: simulated %d/%d/%d, replayed %d/%d/%d",
			simd.s.switches, simd.s.migrations, simd.s.rrNext, rep.s.switches, rep.s.migrations, rep.s.rrNext)
	}
	for i, c := range simd.s.cores {
		rc := rep.s.cores[i]
		if c.busyTime != rc.busyTime || threadCode(simd.workers, c.lastThread) != threadCode(rep.workers, rc.lastThread) {
			t.Errorf("core %d: simulated busy %v last %d, replayed busy %v last %d", i,
				c.busyTime, threadCode(simd.workers, c.lastThread), rc.busyTime, threadCode(rep.workers, rc.lastThread))
		}
	}
	pairs := extra
	for i := range simd.workers {
		pairs = append(pairs, [2]*Thread{simd.workers[i], rep.workers[i]})
	}
	for _, p := range pairs {
		a, b := p[0], p[1]
		if a.cpuTime != b.cpuTime || a.migrations != b.migrations || a.slices != b.slices ||
			simd.s.coreCode(a.lastCore) != rep.s.coreCode(b.lastCore) {
			t.Errorf("thread %s: simulated cpu %v mig %d slices %d core %d, replayed cpu %v mig %d slices %d core %d",
				a.Name, a.cpuTime, a.migrations, a.slices, simd.s.coreCode(a.lastCore),
				b.cpuTime, b.migrations, b.slices, rep.s.coreCode(b.lastCore))
		}
	}
	if len(simd.ends) != len(rep.ends) {
		t.Fatalf("invokes finished: simulated %d, replayed %d", len(simd.ends), len(rep.ends))
	}
	for i := range simd.ends {
		if simd.ends[i] != rep.ends[i] {
			t.Fatalf("invoke %d finished at %v simulated, %v replayed", i, simd.ends[i], rep.ends[i])
		}
	}
}

var replayOps = []time.Duration{700 * time.Microsecond, 9 * time.Millisecond, 40 * time.Microsecond, 2 * time.Millisecond}

func TestReplayMatchesSimulationStickyWorkers(t *testing.T) {
	sticky := func(s *Scheduler, i int) *Thread { return s.Spawn("worker", BigOnly) }
	for _, withOther := range []bool{false, true} {
		rigs := [2]*stretchRig{newStretchRig(false, sticky, 4), newStretchRig(true, sticky, 4)}
		var others [2]*Thread
		for i, g := range rigs {
			if withOther {
				others[i] = g.s.Spawn("gen", BigOnly)
			}
			g.loop(20, replayOps, others[i])
		}
		if withOther {
			sameState(t, rigs[0], rigs[1], [2]*Thread{others[0], others[1]})
			if rigs[0].s.switches == 0 {
				t.Fatal("the interleaved thread caused no context switch; the case is vacuous")
			}
		} else {
			sameState(t, rigs[0], rigs[1])
		}
		if rigs[0].hits != 0 {
			t.Fatalf("replay ran with a listener subscribed (%d hits)", rigs[0].hits)
		}
		if Shortcuts && rigs[1].hits == 0 {
			t.Fatalf("other=%v: no invoke was replayed", withOther)
		}
	}
}

func TestReplayMatchesSimulationMigratoryThread(t *testing.T) {
	migratory := func(s *Scheduler, i int) *Thread { return s.SpawnMigratory("ref", nil) }
	simd, rep := newStretchRig(false, migratory, 1), newStretchRig(true, migratory, 1)
	simd.loop(20, replayOps, nil)
	rep.loop(20, replayOps, nil)
	sameState(t, simd, rep)
	if simd.s.migrations == 0 {
		t.Fatal("the migratory thread never migrated; the case is vacuous")
	}
	if Shortcuts && rep.hits == 0 {
		t.Fatal("no invoke was replayed")
	}
}

// Two states whose cores show the same last threads but whose worker
// last ran on different cores must not share a memo entry: the sticky
// worker goes back to its own core.
func TestReplayFingerprintSeesWorkerPlacement(t *testing.T) {
	run := func(replay bool) *stretchRig {
		g := newStretchRig(replay, func(s *Scheduler, i int) *Thread { return s.Spawn("w", BigOnly) }, 1)
		g1, g2, g3 := g.s.Spawn("g1", BigOnly), g.s.Spawn("g2", BigOnly), g.s.Spawn("g3", BigOnly)
		pair := func() {
			g1.Exec(time.Millisecond, nil)
			g2.Exec(time.Millisecond, nil)
			g.eng.Run()
		}
		pair() // cores 0 and 1 last ran other threads; w never ran
		g.invoke(replayOps, func() {})
		g.eng.Run() // recorded: w lands on core 0
		g3.Exec(time.Millisecond, nil)
		g.workers[0].Exec(time.Microsecond, nil)
		g.eng.Run() // g3 holds core 0, so w moves to core 1
		pair()      // the same core picture as the first invoke saw
		g.invoke(replayOps, func() {})
		g.eng.Run()
		return g
	}
	sameState(t, run(false), run(true))
}

// A stretch that something else overlapped while it was recorded must
// not be memoised: here a burst on a little core lands inside the
// window of the second invoke, whose state the third one repeats.
func TestReplayRecordsOnlyClosedStretches(t *testing.T) {
	run := func(replay bool) *stretchRig {
		g := newStretchRig(replay, func(s *Scheduler, i int) *Thread { return s.Spawn("w", BigOnly) }, 4)
		other := g.s.Spawn("other", LittleOnly)
		other.Exec(time.Microsecond, nil)
		g.eng.Run()
		for i := 0; i < 4; i++ {
			g.invoke(replayOps, func() {})
			if i == 1 {
				g.eng.After(time.Microsecond, func() { other.Exec(100*time.Microsecond, nil) })
			}
			g.eng.Run()
		}
		return g
	}
	simd, rep := run(false), run(true)
	sameState(t, simd, rep)
	if Shortcuts && rep.hits == 0 {
		t.Fatal("no invoke was replayed")
	}
}

func TestReplayOffUnlessQuiet(t *testing.T) {
	skipWithoutShortcuts(t)
	cases := map[string]func(eng *sim.Engine, s *Scheduler){
		"listener":      func(_ *sim.Engine, s *Scheduler) { s.Subscribe(nopListener{}) },
		"pending event": func(eng *sim.Engine, _ *Scheduler) { eng.After(time.Second, func() {}) },
		"busy core":     func(_ *sim.Engine, s *Scheduler) { s.Spawn("bg", nil).Exec(time.Millisecond, nil) },
	}
	for name, setup := range cases {
		eng := sim.NewEngine()
		s := New(eng, DefaultConfig())
		w := []*Thread{s.Spawn("w", BigOnly)}
		if _, ok := s.Fingerprint(w); !ok {
			t.Fatalf("%s: a fresh scheduler is not quiet", name)
		}
		setup(eng, s)
		if _, ok := s.Fingerprint(w); ok {
			t.Errorf("%s: replay allowed", name)
		}
	}
	cfg := DefaultConfig()
	cfg.DVFS = true
	s := New(sim.NewEngine(), cfg)
	if _, ok := s.Fingerprint([]*Thread{s.Spawn("w", BigOnly)}); ok {
		t.Error("DVFS: replay allowed")
	}
}

// A replay that something else overlaps cannot be exact: it must fail
// loudly rather than report the wrong timeline.
func TestReplayPanicsWhenOverlapped(t *testing.T) {
	skipWithoutShortcuts(t)
	g := newStretchRig(true, func(s *Scheduler, i int) *Thread { return s.Spawn("w", BigOnly) }, 2)
	g.loop(4, replayOps, nil)
	if g.hits == 0 {
		t.Fatal("no invoke was replayed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("an overlapped replay did not panic")
		}
	}()
	g.invoke(replayOps, func() {})
	g.eng.After(time.Microsecond, func() {})
	g.eng.Run()
}

func TestReplayAllocatesNothing(t *testing.T) {
	skipWithoutShortcuts(t)
	g := newStretchRig(true, func(s *Scheduler, i int) *Thread { return s.Spawn("w", BigOnly) }, 4)
	g.loop(3, replayOps, nil)
	fp, ok := g.s.Fingerprint(g.workers)
	e := g.memo[fp]
	if !ok || e == nil {
		t.Fatal("steady state was not memoised")
	}
	then := func() {}
	allocs := testing.AllocsPerRun(100, func() {
		g.r.Replay(e, then)
		g.eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("a replayed stretch allocates %.1f times, want 0", allocs)
	}
}
