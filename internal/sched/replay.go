package sched

import (
	"time"

	"aitax/internal/sim"
)

// Steady-state replay.
//
// A stretch of work that a fixed set of worker threads starts on a quiet
// scheduler — no pending engine event, an empty runqueue, every core and
// every worker idle, no Listener and no DVFS governor — runs as a closed
// system. Only its own slice ends fire until it finishes; slice lengths
// and penalties do not depend on the clock; ties among its own events
// resolve in the engine's repeatable seq order. Its effect on the
// scheduler is therefore a function of the few state fields it reads
// (the Fingerprint), and a Replayer can record that effect once and
// re-apply it later with a single engine event.
//
// The stretch must be started as the last action of the event that
// starts it: anything scheduled between the replay event and its firing
// means another party saw the scheduler mid-window, and the replay
// panics rather than return numbers the simulation would not give.
//
// The one hazard it cannot detect: a caller that stops the engine inside
// a replayed window (RunUntil with a horizon before the stretch ends)
// sees the scheduler as it was before the window. The callers that run
// to a horizon (the Fig. 6 profile and `aitax profile`) subscribe a
// profiler Listener, which keeps replay off. Subscribing any Listener,
// even one that ignores every event, is the way to force it off.

const (
	maxReplayCores   = 16
	maxReplayWorkers = 8

	// Codes for a core's lastThread and a worker's lastCore in the
	// fixed-size state arrays; a worker or core index is >= 0.
	noThread    int8 = -1
	otherThread int8 = -2
	noCore      int8 = -1
)

// Fingerprint is the scheduler state a quiet stretch's timeline depends
// on. It is a fixed-size comparable value, so a memo lookup allocates
// nothing.
type Fingerprint struct {
	rrNext                                     int
	timeslice, contextSwitch, migrationPenalty time.Duration
	cores                                      [maxReplayCores]coreKey
	workers                                    [maxReplayWorkers]workerKey
}

type coreKey struct {
	speed float64
	last  int8 // lastThread: noThread, otherThread or a worker index
	big   bool
}

type workerKey struct {
	priority int
	affinity uint16 // bit i set: the thread may run on core i
	lastCore int8   // a core index or noCore
	sticky   bool
}

// Effect is what a recorded stretch did to the scheduler: the virtual
// time it took and every accounting delta and placement it left behind.
type Effect struct {
	elapsed              time.Duration
	switches, migrations int
	rrNext               int
	cores                [maxReplayCores]coreEffect
	workers              [maxReplayWorkers]workerEffect
}

type coreEffect struct {
	busy time.Duration
	last int8 // the worker left as lastThread, or noThread if unchanged
}

type workerEffect struct {
	cpu                time.Duration
	migrations, slices int
	lastCore           int8
}

// Replayer records and replays quiet stretches run by one fixed worker
// set. It holds no memo itself: the caller keys recorded Effects by
// Fingerprint and whatever else determines its work. One Replayer runs at
// most one recording or replay at a time.
type Replayer struct {
	s       *Scheduler
	workers []*Thread

	// Entry snapshot of the stretch being recorded.
	at                   sim.Time
	seq                  uint64
	switches, migrations int
	coreBusy             [maxReplayCores]time.Duration
	coreLast             [maxReplayCores]*Thread
	cpu                  [maxReplayWorkers]time.Duration
	migs, slices         [maxReplayWorkers]int

	// The replay in flight. fire is built once, like Core.sliceEnd, so a
	// replay allocates nothing.
	eff    *Effect
	then   func()
	seqEnd uint64
	fire   func()
}

// NewReplayer returns a Replayer for stretches run by workers, the
// threads Fingerprint was given.
func (s *Scheduler) NewReplayer(workers []*Thread) *Replayer {
	r := &Replayer{s: s, workers: workers}
	r.fire = r.finish
	return r
}

// quiet reports whether a stretch the workers start now would run alone.
func (s *Scheduler) quiet(workers []*Thread) bool {
	if !s.unwatched() || s.eng.Pending() > 0 || len(s.cores) > maxReplayCores ||
		len(workers) == 0 || len(workers) > maxReplayWorkers || !s.allIdle() {
		return false
	}
	for _, t := range workers {
		if !t.idleOn(s) {
			return false
		}
	}
	return true
}

// unwatched reports whether a shortcut may skip slices: it is compiled
// in, no Listener or governor sees or retimes each slice, and no thread
// waits for a core.
func (s *Scheduler) unwatched() bool {
	return Shortcuts && len(s.listeners) == 0 && s.dvfs == nil && len(s.ready) == 0
}

// idleOn reports whether t is a thread of s with no burst running,
// queued or pending.
func (t *Thread) idleOn(s *Scheduler) bool {
	return t.s == s && !t.running && !t.queued && t.remaining == 0 && t.qhead == len(t.queue)
}

// Fingerprint reports whether the scheduler is quiet for a stretch the
// workers start now and, if it is, the state that stretch depends on.
func (s *Scheduler) Fingerprint(workers []*Thread) (fp Fingerprint, ok bool) {
	if !s.quiet(workers) {
		return fp, false
	}
	fp.rrNext = s.rrNext
	fp.timeslice, fp.contextSwitch, fp.migrationPenalty = s.Timeslice, s.ContextSwitch, s.MigrationPenalty
	for i, c := range s.cores {
		fp.cores[i] = coreKey{speed: c.Speed, last: threadCode(workers, c.lastThread), big: c.Big}
	}
	for i, t := range workers {
		fp.workers[i] = workerKey{priority: t.Priority, affinity: uint16(t.affinity),
			lastCore: s.coreCode(t.lastCore), sticky: t.Sticky}
	}
	return fp, true
}

// Hash returns a hash of the fields of fp that a running scheduler
// changes: the round-robin cursor and every placement. Equal
// fingerprints hash equal; a memo indexed by Hash must still compare
// whole fingerprints, since unequal ones may collide.
func (fp *Fingerprint) Hash() uint64 {
	var w [3]uint64
	for i := range fp.cores {
		w[i/8] |= uint64(uint8(fp.cores[i].last)) << (8 * (i % 8))
	}
	for i := range fp.workers {
		w[2] |= uint64(uint8(fp.workers[i].lastCore)) << (8 * i)
	}
	h := uint64(fp.rrNext)
	for _, x := range w {
		h = (h ^ x) * 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

func threadCode(workers []*Thread, t *Thread) int8 {
	if t == nil {
		return noThread
	}
	for i, w := range workers {
		if w == t {
			return int8(i)
		}
	}
	return otherThread
}

func (s *Scheduler) coreCode(c *Core) int8 {
	for i, sc := range s.cores {
		if sc == c {
			return int8(i)
		}
	}
	return noCore
}

// Begin snapshots the scheduler at the start of a stretch to record. Call
// it after Fingerprint reported a quiet scheduler and before the stretch
// submits its first burst.
func (r *Replayer) Begin() {
	s := r.s
	r.at, r.seq = s.eng.Now(), s.eng.Scheduled()
	r.switches, r.migrations = s.switches, s.migrations
	for i, c := range s.cores {
		r.coreBusy[i], r.coreLast[i] = c.busyTime, c.lastThread
	}
	for i, t := range r.workers {
		r.cpu[i], r.migs[i], r.slices[i] = t.cpuTime, t.migrations, t.slices
	}
}

// End closes the stretch started at Begin. It fills e and reports true
// only if the stretch provably ran alone: the scheduler is quiet again
// and every event the engine took since Begin was one of the workers'
// slice ends (each slice schedules exactly one). Otherwise e is left
// untouched.
func (r *Replayer) End(e *Effect) bool {
	s := r.s
	if !s.quiet(r.workers) {
		return false
	}
	slices := 0
	for i, t := range r.workers {
		slices += t.slices - r.slices[i]
	}
	if slices == 0 || s.eng.Scheduled()-r.seq != uint64(slices) {
		return false
	}
	out := Effect{
		elapsed:    s.eng.Now().Sub(r.at),
		switches:   s.switches - r.switches,
		migrations: s.migrations - r.migrations,
		rrNext:     s.rrNext,
	}
	for i, c := range s.cores {
		ce := coreEffect{busy: c.busyTime - r.coreBusy[i], last: noThread}
		if c.lastThread != r.coreLast[i] {
			if ce.last = threadCode(r.workers, c.lastThread); ce.last < 0 {
				return false
			}
		}
		out.cores[i] = ce
	}
	for i, t := range r.workers {
		out.workers[i] = workerEffect{
			cpu:        t.cpuTime - r.cpu[i],
			migrations: t.migrations - r.migs[i],
			slices:     t.slices - r.slices[i],
			lastCore:   s.coreCode(t.lastCore),
		}
	}
	*e = out
	return true
}

// Replay re-applies a recorded effect to a scheduler in the same state
// (equal Fingerprint): one event at now+elapsed applies it, then calls
// then.
func (r *Replayer) Replay(e *Effect, then func()) {
	r.eff, r.then = e, then
	r.s.eng.After(e.elapsed, r.fire)
	r.seqEnd = r.s.eng.Scheduled()
}

// finish is the body of the replay event.
func (r *Replayer) finish() {
	s := r.s
	if s.eng.Scheduled() != r.seqEnd {
		panic("sched: an event was scheduled inside a replayed stretch; a quiet stretch must be started as the last action of its event")
	}
	e, then := r.eff, r.then
	r.eff, r.then = nil, nil
	s.switches += e.switches
	s.migrations += e.migrations
	s.rrNext = e.rrNext
	for i, c := range s.cores {
		ce := &e.cores[i]
		c.busyTime += ce.busy
		if ce.last != noThread {
			c.lastThread = r.workers[ce.last]
		}
	}
	for i, t := range r.workers {
		we := &e.workers[i]
		t.cpuTime += we.cpu
		t.migrations += we.migrations
		t.slices += we.slices
		t.lastCore = nil
		if we.lastCore != noCore {
			t.lastCore = s.cores[we.lastCore]
		}
	}
	then()
}
