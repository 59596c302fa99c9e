package sched

import (
	"time"
)

// DVFS is a per-cluster schedutil-style frequency governor: cluster
// frequency steps up under sustained utilization and decays when idle.
// Real benchmarks often pin frequencies; real applications ramp — one
// more way a benchmark's steady-state number differs from the first
// frames an end user experiences.
//
// The governor is opt-in (Config.DVFS); all paper-artifact experiments
// run with it off, matching the paper's §III-D controlled methodology.
type DVFS struct {
	// Levels is the ascending frequency-factor ladder.
	Levels []float64
	// Window is the utilization sampling period.
	Window time.Duration
	// UpThreshold and DownThreshold bound the target utilization band.
	UpThreshold, DownThreshold float64

	s        *Scheduler
	bigIdx   int
	litIdx   int
	lastBusy []time.Duration // per-core busy snapshot
	running  bool
}

func newDVFS(s *Scheduler) *DVFS {
	return &DVFS{
		Levels:        []float64{0.55, 0.75, 1.0},
		Window:        10 * time.Millisecond,
		UpThreshold:   0.60,
		DownThreshold: 0.25,
		s:             s,
	}
}

// factor returns the current frequency factor for a core.
func (d *DVFS) factor(c *Core) float64 {
	if d == nil {
		return 1
	}
	if c.Big {
		return d.Levels[d.bigIdx]
	}
	return d.Levels[d.litIdx]
}

// BigLevel returns the big cluster's current frequency factor.
func (d *DVFS) BigLevel() float64 { return d.Levels[d.bigIdx] }

// kick starts the governor loop if work exists and it is not running.
func (d *DVFS) kick() {
	if d == nil || d.running {
		return
	}
	d.running = true
	d.snapshot()
	d.tick()
}

func (d *DVFS) snapshot() {
	d.lastBusy = make([]time.Duration, len(d.s.cores))
	for i, c := range d.s.cores {
		d.lastBusy[i] = c.busyTime
	}
}

// tick evaluates utilization over the last window and adjusts levels.
// The loop stops when the system goes idle (so simulations drain) and
// frequencies decay back to the lowest level for the next burst — the
// cold-ramp a user's first frames pay.
func (d *DVFS) tick() {
	d.s.eng.After(d.Window, func() {
		// schedutil acts on the busiest CPU of each policy (cluster):
		// one saturated core is enough to ramp the whole cluster.
		var bigPeak, litPeak float64
		for i, c := range d.s.cores {
			util := float64(c.busyTime-d.lastBusy[i]) / float64(d.Window)
			if c.Big {
				if util > bigPeak {
					bigPeak = util
				}
			} else if util > litPeak {
				litPeak = util
			}
		}
		adjust := func(idx *int, util float64) {
			switch {
			case util > d.UpThreshold && *idx < len(d.Levels)-1:
				*idx++
			case util < d.DownThreshold && *idx > 0:
				*idx--
			}
		}
		adjust(&d.bigIdx, bigPeak)
		adjust(&d.litIdx, litPeak)
		d.snapshot()

		if !d.s.allIdle() || len(d.s.ready) > 0 {
			d.tick()
			return
		}
		// Idle: stop the loop and decay to the lowest level.
		d.running = false
		d.bigIdx, d.litIdx = 0, 0
	})
}
