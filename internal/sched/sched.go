// Package sched is a discrete-event model of the Android/Linux CPU
// scheduler as it matters to the paper: a global runqueue feeding
// big.LITTLE cores with round-robin timeslices, context-switch and
// core-migration penalties, and CPU affinity. The Fig. 6 pathology —
// an NNAPI CPU fallback bouncing a single thread across cores with
// frequent migrations — emerges from exactly these mechanics.
package sched

import (
	"math/bits"
	"time"

	"aitax/internal/sim"
)

// Core is one CPU core. Speed scales execution time: a burst quoted for a
// reference (big) core takes d/Speed here.
type Core struct {
	ID    int
	Big   bool
	Speed float64

	current *Thread
	// Reusable end-of-slice callback state: a core runs at most one
	// slice at a time, so one closure per core (built at construction)
	// serves every slice instead of one allocation per slice.
	sliceEnd  func()
	sliceT    *Thread
	sliceExec time.Duration
	sliceLen  time.Duration
	// Accounting.
	busyTime   time.Duration
	lastThread *Thread
}

// BusyTime returns the cumulative time this core spent executing threads.
func (c *Core) BusyTime() time.Duration { return c.busyTime }

// Listener observes scheduling events (the trace package implements it
// to render Fig. 6-style timelines).
type Listener interface {
	// OnRun fires when a thread occupies a core for a slice.
	OnRun(th *Thread, core *Core, start sim.Time, d time.Duration)
	// OnMigrate fires when a thread resumes on a different core.
	OnMigrate(th *Thread, from, to *Core, at sim.Time)
}

// Thread is a schedulable entity. Work is submitted as bursts; the
// scheduler timeslices bursts across cores.
type Thread struct {
	Name string
	// Sticky threads prefer their previous core (cache affinity), the
	// normal CFS behaviour. Non-sticky threads are placed round-robin
	// across idle cores — the energy-aware bouncing that NNAPI's CPU
	// fallback exhibits in the paper's Fig. 6 profile.
	Sticky bool
	// Priority orders runqueue admission: higher values are dispatched
	// first (Android's foreground/background cgroup distinction). Equal
	// priorities dispatch in arrival order. Running slices are not
	// preempted.
	Priority int

	s         *Scheduler
	affinity  uint64        // bit i set: the thread may run on core i
	remaining time.Duration // of the current burst
	onDone    func()
	// queue[qhead:] are the pending bursts. Popping advances qhead
	// instead of reslicing the front off, so the backing array (and its
	// capacity) is recycled once the queue drains — a thread that
	// executes thousands of bursts reallocates its queue O(1) times, not
	// O(bursts).
	queue    []burst
	qhead    int
	lastCore *Core
	running  bool
	queued   bool

	// Accounting.
	cpuTime    time.Duration
	migrations int
	slices     int
}

type burst struct {
	d      time.Duration
	onDone func()
}

// CPUTime returns the thread's accumulated execution time (reference-core
// scaled time actually spent, i.e. wall time on whatever cores it used).
func (t *Thread) CPUTime() time.Duration { return t.cpuTime }

// Migrations returns how many times the thread changed cores.
func (t *Thread) Migrations() int { return t.migrations }

// Exec submits a CPU burst of duration d (quoted for a big core); onDone
// fires when the burst completes. Bursts queue FIFO per thread.
func (t *Thread) Exec(d time.Duration, onDone func()) {
	if d < 0 {
		panic("sched: negative burst")
	}
	t.queue = append(t.queue, burst{d: d, onDone: onDone})
	t.s.activate(t)
}

// Scheduler owns the cores and the global runqueue.
type Scheduler struct {
	eng   *sim.Engine
	cores []*Core
	ready []*Thread

	// Timeslice is the round-robin quantum.
	Timeslice time.Duration
	// ContextSwitch is charged when a core changes threads.
	ContextSwitch time.Duration
	// MigrationPenalty is charged when a thread resumes on a new core
	// (cold caches).
	MigrationPenalty time.Duration

	listeners []Listener
	rrNext    int    // round-robin cursor for non-sticky placement
	idle      uint64 // bit i set: core i runs no slice
	dvfs      *DVFS

	// Accounting.
	switches   int
	migrations int
}

// Config sizes a scheduler.
type Config struct {
	BigCores    int
	LittleCores int
	// LittleSpeed is the little cores' relative speed (e.g. 0.45).
	LittleSpeed      float64
	Timeslice        time.Duration
	ContextSwitch    time.Duration
	MigrationPenalty time.Duration
	// DVFS enables the schedutil-style frequency governor. Off by
	// default: the paper's methodology controls for it.
	DVFS bool
}

// DefaultConfig mirrors a Snapdragon 845-class octa-core configuration.
func DefaultConfig() Config {
	return Config{
		BigCores:         4,
		LittleCores:      4,
		LittleSpeed:      0.45,
		Timeslice:        4 * time.Millisecond,
		ContextSwitch:    12 * time.Microsecond,
		MigrationPenalty: 60 * time.Microsecond,
	}
}

// New creates a scheduler on the engine.
func New(eng *sim.Engine, cfg Config) *Scheduler {
	if cfg.BigCores <= 0 {
		panic("sched: need at least one big core")
	}
	if cfg.Timeslice <= 0 {
		panic("sched: timeslice must be positive")
	}
	if cfg.BigCores+cfg.LittleCores > 64 {
		panic("sched: at most 64 cores")
	}
	s := &Scheduler{
		eng:              eng,
		Timeslice:        cfg.Timeslice,
		ContextSwitch:    cfg.ContextSwitch,
		MigrationPenalty: cfg.MigrationPenalty,
	}
	id := 0
	for i := 0; i < cfg.BigCores; i++ {
		s.cores = append(s.cores, &Core{ID: id, Big: true, Speed: 1})
		id++
	}
	for i := 0; i < cfg.LittleCores; i++ {
		s.cores = append(s.cores, &Core{ID: id, Big: false, Speed: cfg.LittleSpeed})
		id++
	}
	for _, c := range s.cores {
		c := c
		c.sliceEnd = func() { s.finishSlice(c) }
		s.idle |= 1 << c.ID
	}
	if cfg.DVFS {
		s.dvfs = newDVFS(s)
	}
	return s
}

// Engine returns the engine the scheduler runs on.
func (s *Scheduler) Engine() *sim.Engine { return s.eng }

// Governor returns the DVFS governor, or nil when disabled.
func (s *Scheduler) Governor() *DVFS { return s.dvfs }

// Subscribe registers a scheduling-event listener.
func (s *Scheduler) Subscribe(l Listener) { s.listeners = append(s.listeners, l) }

// Cores returns the core list.
func (s *Scheduler) Cores() []*Core { return s.cores }

// Switches returns the number of context switches performed.
func (s *Scheduler) Switches() int { return s.switches }

// Migrations returns the number of cross-core thread migrations.
func (s *Scheduler) Migrations() int { return s.migrations }

// Spawn creates a (sticky) thread. affinity of nil allows all cores;
// BigOnly and LittleOnly are common masks. affinity is asked once per
// core here and kept as a core bitmask.
func (s *Scheduler) Spawn(name string, affinity func(*Core) bool) *Thread {
	return &Thread{Name: name, Sticky: true, s: s, affinity: s.mask(affinity)}
}

// SpawnMigratory creates a non-sticky thread that is placed round-robin
// across idle cores, migrating (and paying the penalty) nearly every
// slice when the system is otherwise idle.
func (s *Scheduler) SpawnMigratory(name string, affinity func(*Core) bool) *Thread {
	return &Thread{Name: name, Sticky: false, s: s, affinity: s.mask(affinity)}
}

// mask is the core bitmask of the cores affinity allows.
func (s *Scheduler) mask(affinity func(*Core) bool) uint64 {
	var m uint64
	for _, c := range s.cores {
		if affinity == nil || affinity(c) {
			m |= 1 << c.ID
		}
	}
	return m
}

// BigOnly pins a thread to the big cluster.
func BigOnly(c *Core) bool { return c.Big }

// LittleOnly pins a thread to the little cluster.
func LittleOnly(c *Core) bool { return !c.Big }

// activate puts a thread on the runqueue if it has work and isn't
// already queued or running.
func (s *Scheduler) activate(t *Thread) {
	if t.running || t.queued {
		return
	}
	if t.remaining == 0 {
		if t.qhead == len(t.queue) {
			if t.qhead > 0 {
				t.queue = t.queue[:0]
				t.qhead = 0
			}
			return
		}
		b := t.queue[t.qhead]
		t.queue[t.qhead] = burst{} // release the closure
		t.qhead++
		if t.qhead == len(t.queue) {
			t.queue = t.queue[:0]
			t.qhead = 0
		}
		t.remaining = b.d
		t.onDone = b.onDone
		if t.remaining == 0 {
			// Zero-length burst: complete immediately (still async).
			done := t.onDone
			t.onDone = nil
			s.eng.After(0, func() {
				if done != nil {
					done()
				}
				s.activate(t)
			})
			return
		}
	}
	t.queued = true
	s.ready = append(s.ready, t)
	s.dvfs.kick()
	s.dispatch()
}

// dispatch assigns ready threads to idle compatible cores: the
// highest-priority placeable thread first, arrival order within a
// priority class. Core preference: the thread's last core (no
// migration), then idle big cores, then idle little cores. New numbers
// the big cores first, so "big before little" is "lowest ID first".
func (s *Scheduler) dispatch() {
	for {
		best := -1
		var bestCore *Core
		for qi := 0; qi < len(s.ready); qi++ {
			t := s.ready[qi]
			if best >= 0 && t.Priority <= s.ready[best].Priority {
				continue
			}
			if core := s.pickCore(t); core != nil {
				best, bestCore = qi, core
			}
		}
		if best < 0 {
			return
		}
		t := s.ready[best]
		s.ready = append(s.ready[:best], s.ready[best+1:]...)
		t.queued = false
		s.run(t, bestCore)
	}
}

func (s *Scheduler) pickCore(t *Thread) *Core {
	free := s.idle & t.affinity
	if free == 0 {
		return nil
	}
	if !t.Sticky {
		return s.pickRoundRobin(free)
	}
	if l := t.lastCore; l != nil && free&(1<<l.ID) != 0 {
		return l // staying put is always best
	}
	return s.cores[bits.TrailingZeros64(free)]
}

// pickRoundRobin cycles non-sticky threads across the idle compatible
// cores free (not empty): the first at or after the cursor, wrapping.
func (s *Scheduler) pickRoundRobin(free uint64) *Core {
	i := bits.TrailingZeros64(free >> s.rrNext << s.rrNext)
	if i == 64 {
		i = bits.TrailingZeros64(free)
	}
	s.rrNext = (i + 1) % len(s.cores)
	return s.cores[i]
}

// allIdle reports whether no core is running a slice.
func (s *Scheduler) allIdle() bool { return s.idle == 1<<len(s.cores)-1 }

// run executes one timeslice of t on core.
func (s *Scheduler) run(t *Thread, core *Core) {
	var overhead time.Duration
	if core.lastThread != t && core.lastThread != nil {
		overhead += s.ContextSwitch
		s.switches++
	}
	if t.lastCore != nil && t.lastCore != core {
		overhead += s.MigrationPenalty
		s.migrations++
		t.migrations++
		for _, l := range s.listeners {
			l.OnMigrate(t, t.lastCore, core, s.eng.Now())
		}
	}
	slice := s.Timeslice
	if t.remaining < slice {
		slice = t.remaining
	}
	// Execution time on this core, scaled by core speed and the current
	// DVFS frequency level.
	speed := core.Speed
	if s.dvfs != nil {
		speed *= s.dvfs.factor(core)
	}
	execTime := time.Duration(float64(slice)/speed) + overhead

	s.idle &^= 1 << core.ID
	core.current = t
	core.lastThread = t
	t.running = true
	t.lastCore = core
	t.slices++
	start := s.eng.Now()
	for _, l := range s.listeners {
		l.OnRun(t, core, start, execTime)
	}
	core.sliceT, core.sliceExec, core.sliceLen = t, execTime, slice
	s.eng.After(execTime, core.sliceEnd)
}

// finishSlice completes the slice running on core: accounting, burst
// completion, and rescheduling. It is the body of the core's reusable
// sliceEnd callback.
func (s *Scheduler) finishSlice(core *Core) {
	t, execTime, slice := core.sliceT, core.sliceExec, core.sliceLen
	core.sliceT = nil
	s.idle |= 1 << core.ID
	core.current = nil
	core.busyTime += execTime
	t.running = false
	t.cpuTime += execTime
	t.remaining -= slice
	if t.remaining <= 0 {
		t.remaining = 0
		done := t.onDone
		t.onDone = nil
		if done != nil {
			done()
		}
	}
	s.activate(t)
	s.dispatch()
}
