package serve

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/stats"
	"aitax/internal/tflite"
	"aitax/internal/thermal"
)

// QoSPolicy configures the brownout controller behind a serving harness:
// the degradation ladder, the model-downshift map, the delegate batches
// steer to when the configured accelerator runs hot, and the thermal
// model of that accelerator's die.
type QoSPolicy struct {
	// Ladder is the brownout policy; zero fields take qos defaults.
	Ladder qos.Ladder
	// Downshift maps a requested model to the cheaper same-task model
	// that serves it at ladder level 2+. Both sides must be loaded and
	// no target may itself be downshifted (no chains).
	Downshift map[string]string
	// SteerDelegate is where batches run at ladder level 3 — it must
	// differ from the configured delegate, or steering is a no-op.
	SteerDelegate tflite.Delegate
	// Thermal is the accelerator die model (nil = thermal.Default()).
	// Each run advances its own clone, never this template.
	Thermal *thermal.Model
	// Observe freezes the controller at level 0: pressure, burn and the
	// would-be timeline are still computed and reported every tick, but
	// no action ever engages. This is the storm comparison's baseline.
	Observe bool
}

// withDefaults returns a defaulted copy (the caller's policy is never
// mutated).
func (p *QoSPolicy) withDefaults() *QoSPolicy {
	q := *p
	q.Ladder = q.Ladder.Defaults()
	if q.Thermal == nil {
		q.Thermal = thermal.Default()
	}
	return &q
}

// steered is the config a steered batch runs under: the policy's steer
// delegate in place of the serving one. It needs a QoS policy.
func (c Config) steered() Config {
	c.Delegate = c.QoS.SteerDelegate
	return c
}

// ParseDownshift parses "FROM=TO,FROM=TO" into a downshift map. Pair
// validity against the loaded model set is Config.Validate's job.
func ParseDownshift(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		from, to, ok := strings.Cut(part, "=")
		from, to = strings.TrimSpace(from), strings.TrimSpace(to)
		if !ok || from == "" || to == "" {
			return nil, fmt.Errorf("serve: downshift %q is not FROM=TO", part)
		}
		if prev, dup := out[from]; dup {
			return nil, fmt.Errorf("serve: downshift %q already maps to %q", from, prev)
		}
		out[from] = to
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("serve: empty downshift spec")
	}
	return out, nil
}

// validateQoS checks the policy against the loaded model set.
func (c Config) validateQoS() error {
	p := c.QoS
	if err := p.Ladder.Validate(); err != nil {
		return err
	}
	if len(c.SLO) == 0 {
		return fmt.Errorf("serve: qos needs at least one SLO objective (the burn signal)")
	}
	if p.SteerDelegate == c.Delegate {
		return fmt.Errorf("serve: steer delegate %v is the serving delegate — steering would be a no-op", p.SteerDelegate)
	}
	if p.Thermal != nil {
		if err := p.Thermal.Validate(); err != nil {
			return err
		}
	}
	for from, to := range p.Downshift {
		fm, ok := c.modelByName(from)
		if !ok {
			return fmt.Errorf("serve: downshift source %q is not loaded", from)
		}
		tm, ok := c.modelByName(to)
		if !ok {
			return fmt.Errorf("serve: downshift target %q is not loaded", to)
		}
		if from == to {
			return fmt.Errorf("serve: downshift %q to itself", from)
		}
		if fm.Task != tm.Task {
			return fmt.Errorf("serve: downshift %q (%s) to %q (%s) crosses tasks", from, fm.Task, to, tm.Task)
		}
		if _, chained := p.Downshift[to]; chained {
			return fmt.Errorf("serve: downshift target %q is itself downshifted (no chains)", to)
		}
	}
	return nil
}

// rearmHeadroomC is the cool-down hysteresis on the latched trip state:
// once tripped, the accelerator stays off-limits until it has cooled
// this far below the trip point.
const rearmHeadroomC = 2.0

// Transition is one ladder level change in the degradation timeline.
type Transition struct {
	At       time.Duration
	From, To int
	Pressure float64
	Driver   string
	TempC    float64
}

// Degradation is the brownout controller's run accounting: every action
// it took, and the thermal trajectory it steered. Nil on runs without a
// QoS policy.
type Degradation struct {
	// Observe marks the frozen (observe-only) baseline.
	Observe bool
	// Ticks counts controller decisions; Transitions the level changes,
	// in time order.
	Ticks       int
	Transitions []Transition
	// TimeAtLevel is how long the run sat at each ladder level.
	TimeAtLevel [qos.NumRungs + 1]time.Duration
	// Shed counts admission-shed requests per class.
	Shed [qos.NumClasses]int
	// Downshifted counts requests served by their fallback model;
	// SteeredBatches the batches run on the steer delegate;
	// ThrottledBatches the batches stretched by DVFS throttling.
	Downshifted      int
	SteeredBatches   int
	ThrottledBatches int
	// Tripped marks a hard thermal trip; TripAt its first firing.
	Tripped bool
	TripAt  time.Duration
	// PeakTempC and FinalTempC bracket the die trajectory.
	PeakTempC  float64
	FinalTempC float64
}

// ShedTotal is the total count of admission-shed requests.
func (d *Degradation) ShedTotal() int {
	n := 0
	for _, s := range d.Shed {
		n += s
	}
	return n
}

// FullyEngaged reports the ladder reached its top rung at some point.
func (d *Degradation) FullyEngaged() bool {
	for _, t := range d.Transitions {
		if t.To == qos.NumRungs {
			return true
		}
	}
	return false
}

// Recovered reports the ladder came back down to level 0 after having
// engaged at all.
func (d *Degradation) Recovered() bool {
	engaged := false
	for _, t := range d.Transitions {
		if t.To > 0 {
			engaged = true
		}
	}
	if !engaged || len(d.Transitions) == 0 {
		return false
	}
	return d.Transitions[len(d.Transitions)-1].To == 0
}

// qosState is one run's brownout state: the controller, its private
// clone of the thermal model, the latched trip, and the accounting the
// report renders. The serving core drives it on its clock.
type qosState struct {
	pol     *QoSPolicy
	ctl     *qos.Controller
	therm   *thermal.Model
	tripped bool
	deg     Degradation

	// The thermal model's utilization input: hot counts executing
	// batches on the configured (heat-producing) delegate, and busyInt
	// integrates it since the last tick.
	hot      int
	lastBusy sim.Time
	busyInt  time.Duration
	lastTick sim.Time
}

// accrueBusy integrates the hot-delegate busy level up to now.
func (qs *qosState) accrueBusy(now sim.Time) {
	if dt := now.Sub(qs.lastBusy); dt > 0 {
		qs.busyInt += time.Duration(qs.hot) * dt
	}
	qs.lastBusy = now
}

// newQOSState builds a run's controller and thermal clone from the
// (already validated) config.
func newQOSState(cfg Config) (*qosState, error) {
	ctl, err := qos.NewController(cfg.QoS.Ladder)
	if err != nil {
		return nil, err
	}
	if cfg.QoS.Observe {
		ctl.Freeze()
	}
	return &qosState{pol: cfg.QoS, ctl: ctl, therm: cfg.QoS.Thermal.Clone()}, nil
}

// step runs one decision at now: it advances the thermal model by the
// time since the last tick at the hot-delegate busy fraction integrated
// over it (across workers executors), updates the latched trip state —
// tripAt, when positive, is the fault plan's forced trip — and steps
// the controller.
func (qs *qosState) step(now sim.Time, workers int, queueFrac float64, tripAt time.Duration) qos.Tick {
	dt := now.Sub(qs.lastTick)
	qs.lastTick = now
	qs.accrueBusy(now)
	util := 0.0
	if dt > 0 {
		util = float64(qs.busyInt) / (float64(dt) * float64(workers))
	}
	qs.busyInt = 0
	qs.therm.Advance(dt, util)
	temp := qs.therm.TempC()
	if temp > qs.deg.PeakTempC {
		qs.deg.PeakTempC = temp
	}
	if qs.therm.Tripped() || (tripAt > 0 && now.Duration() >= tripAt) {
		qs.tripped = true
		if !qs.deg.Tripped {
			qs.deg.Tripped = true
			qs.deg.TripAt = now.Duration()
		}
	} else if qs.tripped && qs.therm.Headroom() >= rearmHeadroomC {
		qs.tripped = false
	}
	t := qs.ctl.TickAt(now.Duration(), qos.Signals{
		QueueFrac: queueFrac,
		HeadroomC: qs.therm.Headroom(),
		Tripped:   qs.tripped,
	})
	qs.deg.Ticks++
	qs.deg.TimeAtLevel[t.From] += dt
	if t.Changed {
		qs.deg.Transitions = append(qs.deg.Transitions, Transition{
			At: now.Duration(), From: t.From, To: t.Level, Pressure: t.Pressure, Driver: t.Driver, TempC: temp,
		})
	}
	return t
}

// finish closes the accounting and returns the run's degradation
// record.
func (qs *qosState) finish() *Degradation {
	d := qs.deg
	d.Observe = qs.pol.Observe
	d.FinalTempC = qs.therm.TempC()
	return &d
}

// writeDegradation renders the "degradation anatomy" report section:
// the ladder timeline, every action's count, and the thermal
// trajectory — the brownout controller's own AI-tax bill.
func (r *SimResult) writeDegradation(b *strings.Builder, cfg Config) {
	d := r.Degradation
	mode := "active"
	if d.Observe {
		mode = "observe-only (frozen at L0)"
	}
	fmt.Fprintf(b, "\ndegradation anatomy (brownout controller %s, tick %v)\n", mode, cfg.QoS.Ladder.Tick)
	fmt.Fprintf(b, "  ladder: L0 %.3fs | L1 %.3fs | L2 %.3fs | L3 %.3fs  (%d ticks, %d transitions)\n",
		d.TimeAtLevel[0].Seconds(), d.TimeAtLevel[1].Seconds(),
		d.TimeAtLevel[2].Seconds(), d.TimeAtLevel[3].Seconds(),
		d.Ticks, len(d.Transitions))
	fmt.Fprintf(b, "  actions: shed %d best-effort + %d standard + %d interactive | downshifted %d | steered batches %d | throttled batches %d\n",
		d.Shed[qos.BestEffort], d.Shed[qos.Standard], d.Shed[qos.Interactive],
		d.Downshifted, d.SteeredBatches, d.ThrottledBatches)
	if d.Tripped {
		fmt.Fprintf(b, "  thermal: peak %.1fC | final %.1fC | tripped at %v\n", d.PeakTempC, d.FinalTempC, d.TripAt)
	} else {
		fmt.Fprintf(b, "  thermal: peak %.1fC | final %.1fC | no trip\n", d.PeakTempC, d.FinalTempC)
	}
	if len(d.Transitions) > 0 {
		fmt.Fprintf(b, "  transitions:\n")
		for _, tr := range d.Transitions {
			fmt.Fprintf(b, "    %-10v L%d->L%d  pressure %.2f  driver %-7s  temp %.1fC\n",
				tr.At, tr.From, tr.To, tr.Pressure, tr.Driver, tr.TempC)
		}
	}

	agg := make([]modelAgg, qos.NumClasses)
	for _, o := range r.Outcomes {
		agg[o.Class].add(o)
	}
	fmt.Fprintf(b, "\nper-class latency (virtual ms)\n")
	fmt.Fprintf(b, "%-13s %8s %8s %8s %9s %8s %8s\n",
		"class", "offered", "served", "shed", "rejected", "p50", "p99")
	for c := 0; c < qos.NumClasses; c++ {
		a := agg[c]
		sort.Slice(a.latencies, func(i, j int) bool { return a.latencies[i] < a.latencies[j] })
		fmt.Fprintf(b, "%-13s %8d %8d %8d %9d %8.3f %8.3f\n",
			qos.Class(c).String(), a.offered, a.served, a.shed, a.rejected,
			ms(stats.NearestRank(a.latencies, 0.50)), ms(stats.NearestRank(a.latencies, 0.99)))
	}
}
