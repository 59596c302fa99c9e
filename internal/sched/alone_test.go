package sched

import (
	"testing"
	"time"

	"aitax/internal/sim"
)

// runAloneChain applies ops to g's workers with RunAlone, one after the
// other, and schedules the event that ends the chain, as the CPU
// delegate does. It reports false if an op was refused.
func runAloneChain(g *stretchRig, ops []time.Duration) bool {
	at := g.eng.Now()
	for _, d := range ops {
		end, ok := g.s.RunAlone(g.workers, at, d)
		if !ok {
			return false
		}
		at = end
	}
	g.eng.Schedule(at, func() { g.ends = append(g.ends, g.eng.Now()) })
	return true
}

// aloneMatchesSimulation prepares a simulated rig and a RunAlone rig of
// n workers the same way, runs ops on both and requires identical
// scheduler state. prep may start other threads; it returns them so
// their accounting is compared too.
func aloneMatchesSimulation(t *testing.T, spawn func(s *Scheduler, i int) *Thread, n int, ops []time.Duration,
	prep func(g *stretchRig) []*Thread) (simd, alone *stretchRig) {
	t.Helper()
	skipWithoutShortcuts(t)
	simd, alone = newStretchRig(false, spawn, n), newStretchRig(true, spawn, n)
	var others [2][]*Thread
	if prep != nil {
		others[0], others[1] = prep(simd), prep(alone)
	}
	simd.invoke(ops, func() {})
	if !runAloneChain(alone, ops) {
		t.Fatal("RunAlone refused")
	}
	simd.eng.Run()
	alone.eng.Run()
	var pairs [][2]*Thread
	for i := range others[0] {
		pairs = append(pairs, [2]*Thread{others[0][i], others[1][i]})
	}
	sameState(t, simd, alone, pairs...)
	return simd, alone
}

func bigWorker(s *Scheduler, i int) *Thread { return s.Spawn("w", BigOnly) }

// A burst longer than the timeslice runs as several slices, each
// rounded on its own: on a little core 9.3 ms in one piece rounds to a
// different time than 4 + 4 + 1.3 ms.
func TestRunAloneMultiSlice(t *testing.T) {
	d := 2*DefaultConfig().Timeslice + 1_300_001
	simd, _ := aloneMatchesSimulation(t, func(s *Scheduler, i int) *Thread { return s.Spawn("w", LittleOnly) }, 2,
		[]time.Duration{d, time.Millisecond, d}, nil)
	if got := simd.workers[0].slices; got != 7 {
		t.Fatalf("a worker ran %d slices, want 7", got)
	}
	on := func(x time.Duration) time.Duration { return time.Duration(float64(x) / simd.workers[0].lastCore.Speed) }
	if on(d) == 2*on(DefaultConfig().Timeslice)+on(1_300_001) {
		t.Fatal("per-slice rounding equals whole-burst rounding here; the case is vacuous")
	}
}

// A worker landing on a core another thread ran last pays a context
// switch.
func TestRunAloneContextSwitch(t *testing.T) {
	simd, _ := aloneMatchesSimulation(t, bigWorker, 2, replayOps, func(g *stretchRig) []*Thread {
		other := g.s.Spawn("other", BigOnly)
		other.Exec(time.Millisecond, nil)
		g.eng.Run()
		return []*Thread{other}
	})
	if simd.s.switches == 0 {
		t.Fatal("no context switch; the case is vacuous")
	}
}

// A worker whose last core is taken moves to a free one and pays the
// migration penalty; the thread holding its core runs on past the ops.
func TestRunAloneMigration(t *testing.T) {
	simd, _ := aloneMatchesSimulation(t, bigWorker, 2, []time.Duration{700 * time.Microsecond, 40 * time.Microsecond},
		func(g *stretchRig) []*Thread {
			for _, w := range g.workers {
				w.Exec(time.Microsecond, nil)
			}
			g.eng.Run() // the workers last ran on cores 0 and 1
			hog := g.s.Spawn("hog", func(c *Core) bool { return c.ID == 0 })
			hog.Exec(10*time.Millisecond, nil)
			return []*Thread{hog}
		})
	if simd.s.migrations == 0 || simd.workers[0].migrations != 1 {
		t.Fatalf("%d migrations, worker 0 %d; want worker 0 to migrate once", simd.s.migrations, simd.workers[0].migrations)
	}
}

// RunAlone must refuse when a live event is due at or before the last
// slice end: at that instant the event could start a thread on a core
// the burst has just released. Cancelled events do not count.
func TestRunAloneEventHorizon(t *testing.T) {
	skipWithoutShortcuts(t)
	const d = 700 * time.Microsecond
	probe := newStretchRig(true, bigWorker, 3)
	end, ok := probe.s.RunAlone(probe.workers, 0, d)
	if !ok {
		t.Fatal("RunAlone refused on an idle scheduler")
	}
	for _, tc := range []struct {
		name string
		at   sim.Time
		dead bool
		want bool
	}{
		{"event at the barrier", end, false, false},
		{"event inside the burst", end - 1, false, false},
		{"event just after the barrier", end + 1, false, true},
		{"cancelled event inside the burst", 1, true, true},
	} {
		g := newStretchRig(true, bigWorker, 3)
		id := g.eng.Schedule(tc.at, func() {})
		if tc.dead {
			g.eng.Cancel(id)
		}
		got, ok := g.s.RunAlone(g.workers, 0, d)
		if ok != tc.want || (ok && got != end) {
			t.Errorf("%s: RunAlone = %v, %v; want ok %v (end %v)", tc.name, got, ok, tc.want, end)
		}
		if !ok && (g.s.switches != 0 || g.workers[0].slices != 0 || g.s.cores[0].busyTime != 0) {
			t.Errorf("%s: a refused RunAlone changed the scheduler", tc.name)
		}
	}
}

// RunAlone must refuse whenever another thread could take part in the
// burst: one waiting on the runqueue, a migratory worker, and the other
// cases replay also refuses.
func TestRunAloneRefuses(t *testing.T) {
	skipWithoutShortcuts(t)
	for name, setup := range map[string]func(s *Scheduler) []*Thread{
		"non-empty runqueue": func(s *Scheduler) []*Thread {
			for i := 0; i < 5; i++ { // four take the big cores, one waits
				s.Spawn("bg", BigOnly).Exec(time.Second, nil)
			}
			return []*Thread{s.Spawn("w", nil)}
		},
		"migratory worker": func(s *Scheduler) []*Thread { return []*Thread{s.SpawnMigratory("ref", nil)} },
		"listener": func(s *Scheduler) []*Thread {
			s.Subscribe(nopListener{})
			return []*Thread{s.Spawn("w", BigOnly)}
		},
		"no free core": func(s *Scheduler) []*Thread {
			s.Spawn("bg", LittleOnly).Exec(time.Second, nil)
			return []*Thread{s.Spawn("w", func(c *Core) bool { return !c.Big && c.ID == 4 })}
		},
		"busy worker": func(s *Scheduler) []*Thread {
			w := s.Spawn("w", BigOnly)
			w.Exec(time.Second, nil)
			return []*Thread{w}
		},
	} {
		s := New(sim.NewEngine(), DefaultConfig())
		w := setup(s)
		idle, rr, slices := s.idle, s.rrNext, w[0].slices
		if _, ok := s.RunAlone(w, s.eng.Now(), time.Microsecond); ok {
			t.Errorf("%s: RunAlone allowed", name)
		}
		if s.idle != idle || s.rrNext != rr || w[0].slices != slices {
			t.Errorf("%s: a refused RunAlone changed the scheduler", name)
		}
	}
	cfg := DefaultConfig()
	cfg.DVFS = true
	s := New(sim.NewEngine(), cfg)
	if _, ok := s.RunAlone([]*Thread{s.Spawn("w", BigOnly)}, 0, time.Microsecond); ok {
		t.Error("DVFS: RunAlone allowed")
	}
	s = New(sim.NewEngine(), DefaultConfig())
	if _, ok := s.RunAlone([]*Thread{s.Spawn("w", BigOnly)}, 0, 0); ok {
		t.Error("zero-length burst: RunAlone allowed")
	}
}
