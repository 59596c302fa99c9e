package sched

import (
	"testing"
	"testing/quick"
	"time"

	"aitax/internal/sim"
)

func newSched() (*sim.Engine, *Scheduler) {
	eng := sim.NewEngine()
	return eng, New(eng, DefaultConfig())
}

func TestSingleBurstRuns(t *testing.T) {
	eng, s := newSched()
	th := s.Spawn("t", nil)
	done := false
	th.Exec(10*time.Millisecond, func() { done = true })
	eng.Run()
	if !done {
		t.Fatal("burst did not complete")
	}
	if th.CPUTime() < 10*time.Millisecond {
		t.Fatalf("cpu time = %v", th.CPUTime())
	}
}

func TestParallelThreadsUseMultipleCores(t *testing.T) {
	eng, s := newSched()
	// 4 threads of 40ms on 4 big cores must finish in ~40ms, not 160ms.
	for i := 0; i < 4; i++ {
		s.Spawn("t", BigOnly).Exec(40*time.Millisecond, nil)
	}
	end := eng.Run()
	if end.Duration() > 45*time.Millisecond {
		t.Fatalf("4 threads on 4 cores took %v, want ~40ms", end.Duration())
	}
}

func TestOversubscriptionSerializes(t *testing.T) {
	eng, s := newSched()
	// 8 threads of 40ms pinned to 4 big cores: ~80ms.
	for i := 0; i < 8; i++ {
		s.Spawn("t", BigOnly).Exec(40*time.Millisecond, nil)
	}
	end := eng.Run()
	if end.Duration() < 79*time.Millisecond {
		t.Fatalf("8 threads on 4 cores took %v, want >=80ms", end.Duration())
	}
}

func TestLittleCoresAreSlower(t *testing.T) {
	eng, s := newSched()
	th := s.Spawn("t", LittleOnly)
	th.Exec(10*time.Millisecond, nil)
	end := eng.Run()
	// 10ms of big-core work at 0.45 speed ≈ 22ms.
	if end.Duration() < 20*time.Millisecond {
		t.Fatalf("little-core run took %v, want >20ms", end.Duration())
	}
}

func TestTimeslicingInterleaves(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BigCores, cfg.LittleCores = 1, 0
	s := New(eng, cfg)
	var order []string
	a := s.Spawn("a", nil)
	b := s.Spawn("b", nil)
	a.Exec(8*time.Millisecond, func() { order = append(order, "a") })
	b.Exec(3*time.Millisecond, func() { order = append(order, "b") })
	eng.Run()
	// With a 4ms slice, b (3ms) finishes during its first slice, before
	// a's 8ms total completes.
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("completion order = %v, want [b a]", order)
	}
	if s.Switches() == 0 {
		t.Fatal("interleaving must context switch")
	}
}

func TestMigrationCountedAndPenalized(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BigCores, cfg.LittleCores = 2, 0
	s := New(eng, cfg)
	// Two long threads plus a third that must bounce between whichever
	// core frees first.
	s.Spawn("x", nil).Exec(20*time.Millisecond, nil)
	s.Spawn("y", nil).Exec(20*time.Millisecond, nil)
	floater := s.Spawn("f", nil)
	floater.Exec(20*time.Millisecond, nil)
	eng.Run()
	if s.Migrations() == 0 {
		t.Fatal("floater must migrate between cores")
	}
	if floater.Migrations() == 0 {
		t.Fatal("per-thread migration count must grow")
	}
}

func TestAffinityRespected(t *testing.T) {
	eng, s := newSched()
	th := s.Spawn("big", BigOnly)
	th.Exec(5*time.Millisecond, nil)
	eng.Run()
	if th.lastCore == nil || !th.lastCore.Big {
		t.Fatal("BigOnly thread ran on a little core")
	}
}

func TestSequentialBurstsFIFO(t *testing.T) {
	eng, s := newSched()
	th := s.Spawn("t", nil)
	var order []int
	th.Exec(time.Millisecond, func() { order = append(order, 1) })
	th.Exec(time.Millisecond, func() { order = append(order, 2) })
	th.Exec(time.Millisecond, func() { order = append(order, 3) })
	eng.Run()
	if len(order) != 3 || order[0] != 1 || order[2] != 3 {
		t.Fatalf("burst order = %v", order)
	}
}

func TestZeroLengthBurst(t *testing.T) {
	eng, s := newSched()
	th := s.Spawn("t", nil)
	fired := false
	th.Exec(0, func() { fired = true })
	eng.Run()
	if !fired {
		t.Fatal("zero burst callback missing")
	}
}

func TestUtilizationAccounting(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BigCores, cfg.LittleCores = 1, 0
	s := New(eng, cfg)
	s.Spawn("t", nil).Exec(10*time.Millisecond, nil)
	eng.Run()
	if u := float64(s.Cores()[0].BusyTime()) / float64(eng.Now()); u < 0.99 {
		t.Fatalf("single busy core utilization = %v, want ~1", u)
	}
}

func TestListener(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BigCores, cfg.LittleCores = 2, 0
	s := New(eng, cfg)
	l := &countListener{}
	s.Subscribe(l)
	s.Spawn("a", nil).Exec(10*time.Millisecond, nil)
	s.Spawn("b", nil).Exec(10*time.Millisecond, nil)
	s.Spawn("c", nil).Exec(10*time.Millisecond, nil)
	eng.Run()
	if l.runs == 0 {
		t.Fatal("no OnRun events")
	}
	if l.migrations != s.Migrations() {
		t.Fatalf("listener migrations %d != scheduler %d", l.migrations, s.Migrations())
	}
}

type countListener struct {
	runs, migrations int
}

func (c *countListener) OnRun(th *Thread, core *Core, start sim.Time, d time.Duration) { c.runs++ }
func (c *countListener) OnMigrate(th *Thread, from, to *Core, at sim.Time)             { c.migrations++ }

func TestBigCorePreferredWhenFree(t *testing.T) {
	eng, s := newSched()
	th := s.Spawn("t", nil)
	th.Exec(time.Millisecond, nil)
	eng.Run()
	if !th.lastCore.Big {
		t.Fatal("unpinned thread should start on a big core")
	}
}

func TestManyThreadsAllComplete(t *testing.T) {
	eng, s := newSched()
	done := 0
	for i := 0; i < 50; i++ {
		s.Spawn("t", nil).Exec(time.Duration(1+i%7)*time.Millisecond, func() { done++ })
	}
	eng.Run()
	if done != 50 {
		t.Fatalf("completed = %d, want 50", done)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, int, int) {
		eng, s := newSched()
		for i := 0; i < 20; i++ {
			s.Spawn("t", nil).Exec(time.Duration(1+i%5)*time.Millisecond, nil)
		}
		end := eng.Run()
		return end.Duration(), s.Switches(), s.Migrations()
	}
	d1, sw1, m1 := run()
	d2, sw2, m2 := run()
	if d1 != d2 || sw1 != sw2 || m1 != m2 {
		t.Fatal("scheduler is nondeterministic")
	}
}

func TestWorkConservationProperty(t *testing.T) {
	// Property: total core busy time equals the sum of thread CPU time,
	// for any mix of bursts.
	f := func(bursts []uint16) bool {
		eng, s := newSched()
		var threads []*Thread
		for i, b := range bursts {
			th := s.Spawn("t", nil)
			if i%3 == 0 {
				th = s.SpawnMigratory("m", nil)
			}
			th.Exec(time.Duration(b)*time.Microsecond, nil)
			threads = append(threads, th)
		}
		eng.Run()
		var coreBusy, threadCPU time.Duration
		for _, c := range s.Cores() {
			coreBusy += c.BusyTime()
		}
		for _, th := range threads {
			threadCPU += th.CPUTime()
		}
		return coreBusy == threadCPU
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPriorityDispatchOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BigCores, cfg.LittleCores = 1, 0
	s := New(eng, cfg)
	// Occupy the core, then queue a low- and a high-priority thread.
	s.Spawn("hog", nil).Exec(2*time.Millisecond, nil)
	var order []string
	lo := s.Spawn("lo", nil)
	lo.Priority = -1
	lo.Exec(time.Millisecond, func() { order = append(order, "lo") })
	hi := s.Spawn("hi", nil)
	hi.Priority = 5
	hi.Exec(time.Millisecond, func() { order = append(order, "hi") })
	eng.Run()
	if len(order) != 2 || order[0] != "hi" {
		t.Fatalf("dispatch order = %v, want hi first", order)
	}
}

func TestEqualPriorityKeepsArrivalOrder(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.BigCores, cfg.LittleCores = 1, 0
	s := New(eng, cfg)
	s.Spawn("hog", nil).Exec(time.Millisecond, nil)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		s.Spawn(name, nil).Exec(100*time.Microsecond, func() { order = append(order, name) })
	}
	eng.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("arrival order broken: %v", order)
	}
}

func TestDVFSRampsUpUnderLoad(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.DVFS = true
	s := New(eng, cfg)
	if s.Governor() == nil {
		t.Fatal("governor missing")
	}
	if s.Governor().BigLevel() != 0.55 {
		t.Fatalf("initial level = %v, want lowest", s.Governor().BigLevel())
	}
	// Sustained load on the big cluster ramps the frequency.
	for i := 0; i < 4; i++ {
		s.Spawn("w", BigOnly).Exec(80*time.Millisecond, nil)
	}
	eng.RunUntil(sim.Time(0).Add(60 * time.Millisecond))
	if s.Governor().BigLevel() != 1.0 {
		t.Fatalf("level after sustained load = %v, want 1.0", s.Governor().BigLevel())
	}
	eng.Run()
}

func TestDVFSFirstBurstSlowerThanSteady(t *testing.T) {
	// The cold-ramp effect: the same burst takes longer from idle than
	// once the governor has ramped.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.DVFS = true
	s := New(eng, cfg)
	th := s.Spawn("w", BigOnly)
	var first, later time.Duration
	start := eng.Now()
	th.Exec(20*time.Millisecond, func() {
		first = eng.Now().Sub(start)
		// Keep load up, then measure again at speed.
		for i := 0; i < 4; i++ {
			th.Exec(20*time.Millisecond, nil)
		}
		th.Exec(0, func() {
			s2 := eng.Now()
			th.Exec(20*time.Millisecond, func() { later = eng.Now().Sub(s2) })
		})
	})
	eng.Run()
	if later >= first {
		t.Fatalf("ramped burst (%v) must beat cold burst (%v)", later, first)
	}
}

func TestDVFSOffByDefault(t *testing.T) {
	eng := sim.NewEngine()
	s := New(eng, DefaultConfig())
	if s.Governor() != nil {
		t.Fatal("DVFS must be opt-in")
	}
	// A 10ms burst at full speed takes exactly 10ms.
	s.Spawn("w", BigOnly).Exec(10*time.Millisecond, nil)
	if end := eng.Run(); end.Duration() != 10*time.Millisecond {
		t.Fatalf("no-DVFS burst took %v", end.Duration())
	}
}

func TestDVFSSimulationDrains(t *testing.T) {
	// The governor must not keep the event queue alive forever.
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.DVFS = true
	s := New(eng, cfg)
	s.Spawn("w", nil).Exec(5*time.Millisecond, nil)
	end := eng.Run()
	if end.Duration() > time.Second {
		t.Fatalf("governor kept simulation alive: %v", end.Duration())
	}
}
