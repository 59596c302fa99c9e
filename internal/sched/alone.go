package sched

import (
	"time"

	"aitax/internal/sim"
)

// Running a burst alone.
//
// Replay needs a quiet engine, and an application's camera, pre/post
// and UI threads keep it busy. Yet between two of their events a CPU
// delegate's workers often run op after op with nothing else on their
// cores. Such a stretch cannot interact with anything (conservative
// lookahead), so RunAlone applies each op's bursts at once, and the
// delegate schedules one event where the per-slice simulation would have
// scheduled one per slice.

// RunAlone runs a burst of d on every worker as one step, starting at
// at: now, or the end of a burst run alone just before. It does so only
// when nothing else can touch the workers' cores before the burst ends:
// no Listener and no governor is attached, the runqueue is empty, every
// worker (at most eight) is sticky and idle and finds a free core in
// its mask, and no live event is due at or before the last slice end.
// It places the workers in order by pickCore's rule, charges every
// slice, switch and migration the simulation would, and returns when
// the last slice ends. Otherwise it reports false and changes nothing.
//
// The clock does not move: the caller schedules the event that carries
// on at end, and nothing may be scheduled before it fires. With no
// event due at or before end, every event pending now fires after it in
// either case, so giving the elided slice ends no sequence numbers
// changes no order.
func (s *Scheduler) RunAlone(workers []*Thread, at sim.Time, d time.Duration) (sim.Time, bool) {
	if !s.unwatched() || d <= 0 || len(workers) > maxReplayWorkers {
		return 0, false
	}
	var runs [maxReplayWorkers]aloneRun
	idle, end := s.idle, at
	for i, t := range workers {
		var c *Core
		if t.Sticky && t.idleOn(s) {
			c = s.pickCore(t)
		}
		if c == nil {
			s.idle = idle
			return 0, false
		}
		s.idle &^= 1 << c.ID
		r := &runs[i]
		r.c = c
		r.switched = c.lastThread != t && c.lastThread != nil
		r.migrated = t.lastCore != nil && t.lastCore != c
		if r.switched {
			r.busy += s.ContextSwitch
		}
		if r.migrated {
			r.busy += s.MigrationPenalty
		}
		// Split the burst into the slices run and finishSlice would
		// give it: the thread stays on c, so only the first slice pays
		// a penalty, and each slice's time is rounded on its own.
		for left := d; left > 0; left -= s.Timeslice {
			r.busy += time.Duration(float64(min(left, s.Timeslice)) / c.Speed)
			r.slices++
		}
		end = max(end, at.Add(r.busy))
	}
	s.idle = idle
	if next, pending := s.eng.Next(); pending && next <= end {
		return 0, false
	}
	for i, t := range workers {
		r := &runs[i]
		if r.switched {
			s.switches++
		}
		if r.migrated {
			s.migrations++
			t.migrations++
		}
		// Store placements only when they change: most ops keep them,
		// and a pointer store costs a write barrier while the GC marks.
		if r.c.lastThread != t {
			r.c.lastThread = t
		}
		if t.lastCore != r.c {
			t.lastCore = r.c
		}
		r.c.busyTime += r.busy
		t.cpuTime += r.busy
		t.slices += r.slices
	}
	return end, true
}

// aloneRun is one worker's part of a burst run alone.
type aloneRun struct {
	c                  *Core
	busy               time.Duration
	slices             int
	switched, migrated bool
}
