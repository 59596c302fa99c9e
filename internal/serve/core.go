package serve

import (
	"slices"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
)

// Outcome is one request's fate on the serving core's clock: virtual
// time in the simulator, time since start in the HTTP frontend. A
// refused request has only Arrival set and everything else zero.
type Outcome struct {
	ID    int
	Model string
	// Arrival, Flushed, Started, Finished are the request's queueing
	// milestones: admission, batch flush (window close or max-batch),
	// executor pickup, completion.
	Arrival  sim.Time
	Flushed  sim.Time
	Started  sim.Time
	Finished sim.Time
	// Rejected marks an arrival turned away by admission control.
	Rejected bool
	// Class is the request's QoS class (Standard when undeclared).
	Class qos.Class
	// Shed marks an arrival turned away by the brownout controller's
	// class shedding (distinct from a queue-full rejection).
	Shed bool
	// ServedAs, when non-empty, is the cheaper model the brownout
	// controller downshifted this request to.
	ServedAs string
	// Steered marks a request whose batch ran on the steer delegate.
	Steered bool
	// BatchSize is the size of the batch that served the request.
	BatchSize int
	// Stages is the request's share of the batch's stage anatomy (see
	// BatchCost): its inference stage is the useful compute, everything
	// else in Latency is serving tax.
	Stages taxcore.StageTimes
	// ComputeTax is the request's share of the batch's pipeline tax
	// plus its share of the per-dispatch overhead.
	ComputeTax time.Duration
}

// Latency is the end-to-end time the client observed.
func (o Outcome) Latency() time.Duration { return o.Finished.Sub(o.Arrival) }

// Tax is the non-inference share of the request's latency: batch wait,
// dispatch wait, its slice of the batch's pipeline tax and dispatch
// overhead, and time serialized behind batch co-riders.
func (o Outcome) Tax() time.Duration { return o.Latency() - o.Stages.Stage[taxcore.StageInference] }

// BatchWait is time spent waiting for the batch window to close.
func (o Outcome) BatchWait() time.Duration { return o.Flushed.Sub(o.Arrival) }

// DispatchWait is time a flushed batch waited for a free executor.
func (o Outcome) DispatchWait() time.Duration { return o.Started.Sub(o.Flushed) }

// clock is the time base a serving core runs on: the simulator's event
// engine, or wall timers in the HTTP frontend. after runs f once, d
// from now, holding whatever guards the core, and returns the timer
// that stop cancels. A stop can lose the race with a callback that has
// already fired, so the core makes every callback check it is current.
type clock interface {
	now() sim.Time
	after(d time.Duration, f func()) timer
	stop(timer)
}

// timer is one armed clock callback: an engine event in the simulator,
// a wall timer in the HTTP frontend; the zero timer is none. Stopping
// one that already fired does nothing.
type timer struct {
	ev   sim.EventID
	wall *time.Timer
}

// admission is the core's verdict on an arriving request.
type admission int

const (
	admitted admission = iota
	shed               // turned away by brownout class shedding
	rejected           // turned away by a full queue
	draining           // refused by a closed core, and counted nowhere
)

// request is one request inside the core. span, wait and done belong
// to the harness: the simulator's trace spans, and the HTTP handler's
// completion signal (the batch's error, nil once Outcome is final).
type request struct {
	out Outcome
	// idx is the request's index in the simulator's arrival list.
	idx        int
	q          *queue
	span, wait *telemetry.ActiveSpan
	done       chan error
}

// queue is one model's admission queue and open batch.
type queue struct {
	name    string
	series  queueSeries
	pending []*request
	// queued counts admitted requests not yet in service — the
	// admission-control quantity.
	queued  int
	batches int
	// window is the open batch window's timer. gen tags the window, so
	// a callback that fires after its batch was flushed (or emptied by
	// cancellation) cannot flush a later batch.
	window timer
	gen    int
}

// queueSeries is one model's registry series names, each labelled
// model="…". newCore renders them once per queue, so admission,
// batching and completion build no names.
type queueSeries struct {
	requests, rejected, cancelled, downshift, batches, batchSize, latency, tax, service string
}

// shedSeries are the brownout shed counter's names, one per QoS class.
var shedSeries = func() (names [qos.NumClasses]string) {
	for c := range names {
		names[c] = telemetry.Labeled("aitax_qos_shed_total", "class", qos.Class(c).String())
	}
	return names
}()

// batch is one flushed batch. steered and factor are fixed at
// dispatch: the delegate it runs on, and the DVFS throttle (1 = none)
// that stretches its service.
type batch struct {
	q       *queue
	reqs    []*request
	steered bool
	factor  float64
	span    *telemetry.ActiveSpan
}

// core is the serving policy as one clock-agnostic state machine:
// admission (brownout shedding, model downshift, the queue-depth
// check), batch formation, FIFO dispatch with steering and thermal
// throttling, completion accounting with the SLO burn feed, and the
// brownout controller's decision tick. Its harness calls it from one
// goroutine at a time — the simulator's event loop, or under the HTTP
// server's mutex — and executes the batches it dispatches.
type core struct {
	cfg     Config
	clk     clock
	metrics *telemetry.Registry
	// run starts a dispatched batch on an executor; the harness calls
	// complete once the batch's cost is known.
	run func(*batch)
	// onTransition, when set, observes each ladder level change.
	onTransition func(qos.Tick)

	queues map[string]*queue
	order  []*queue  // Config.Models order
	ready  []*batch  // flushed batches awaiting an executor, FIFO
	free   int       // idle executors
	active int       // batches in service
	closed bool      // no more admissions
	qs     *qosState // nil without a QoS policy
	// tickTimer is the armed decision tick, when ticking; tickFn is the
	// tick method value, bound once.
	tickTimer timer
	ticking   bool
	tickFn    func()
}

func newCore(cfg Config, clk clock, metrics *telemetry.Registry, run func(*batch)) (*core, error) {
	c := &core{
		cfg: cfg, clk: clk, metrics: metrics, run: run,
		queues: make(map[string]*queue, len(cfg.Models)),
		free:   cfg.Workers,
	}
	for _, m := range cfg.Models {
		n := func(base string) string { return telemetry.Labeled(base, "model", m.Name) }
		q := &queue{name: m.Name, series: queueSeries{
			requests: n("aitax_serve_requests_total"), rejected: n("aitax_serve_rejected_total"),
			cancelled: n("aitax_serve_cancelled_total"), downshift: n("aitax_qos_downshift_total"),
			batches: n("aitax_serve_batches_total"), batchSize: n("aitax_serve_batch_size"),
			latency: n("aitax_serve_latency_ms"), tax: n("aitax_serve_tax_ms"), service: n("aitax_serve_service_ms"),
		}}
		c.queues[m.Name] = q
		c.order = append(c.order, q)
	}
	if cfg.QoS != nil {
		qs, err := newQOSState(cfg)
		if err != nil {
			return nil, err
		}
		c.qs = qs
		c.tickFn = c.tick
	}
	return c, nil
}

// start arms the brownout controller's next decision tick; tick calls
// it again while the core is open or holds work.
func (c *core) start() {
	if c.qs != nil {
		c.tickTimer = c.clk.after(c.qs.ctl.Ladder().Tick, c.tickFn)
		c.ticking = true
	}
}

// close stops admission: later arrivals are refused as draining. Work
// already admitted still runs to completion.
func (c *core) close() {
	c.closed = true
	c.maybeStopTick()
}

// busy reports whether any admitted request is still queued or in
// service.
func (c *core) busy() bool {
	if c.active > 0 {
		return true
	}
	for _, q := range c.order {
		if q.queued > 0 {
			return true
		}
	}
	return false
}

// maybeStopTick cancels the decision tick once the core is closed and
// idle, so a simulation ends at its last completion, not a later tick.
func (c *core) maybeStopTick() {
	if c.ticking && c.closed && !c.busy() {
		c.clk.stop(c.tickTimer)
		c.ticking = false
	}
}

// admit runs admission control for one arriving request: brownout
// shedding, then downshift onto the fallback model's queue, then the
// queue-depth check. An admitted request holds a queue slot; the
// harness then hands it to enqueue.
func (c *core) admit(r *request) admission {
	if c.closed {
		return draining
	}
	name := r.out.Model
	// asked is the requested model's queue: the request's counters stay
	// with it even when a downshift moves the request elsewhere.
	asked := c.queues[name]
	r.out.Arrival = c.clk.now()
	c.metrics.Inc(asked.series.requests)
	// Brownout rung 1: shed best-effort traffic at admission. Shed
	// outcomes are not fed back into the controller's burn signal — its
	// own action must not hold its pressure up.
	if c.qs != nil && c.qs.ctl.Shed(r.out.Class) {
		r.out.Shed = true
		c.qs.deg.Shed[r.out.Class]++
		c.metrics.Inc(shedSeries[r.out.Class])
		return shed
	}
	// Brownout rung 2: rewrite the request onto its cheaper fallback
	// model's queue; it batches, prices and serves as that model.
	r.q = asked
	if c.qs != nil && c.qs.ctl.Downshift() {
		if to, ok := c.cfg.QoS.Downshift[name]; ok {
			r.out.ServedAs = to
			r.q = c.queues[to]
			c.qs.deg.Downshifted++
			c.metrics.Inc(asked.series.downshift)
		}
	}
	if r.q.queued >= c.cfg.QueueDepth {
		r.out.Rejected = true
		c.metrics.Inc(asked.series.rejected)
		c.burn(name, 0, true)
		return rejected
	}
	r.q.queued++
	return admitted
}

// enqueue adds an admitted request to its queue's open batch, flushing
// at the batch cap (or at once without a window); the first rider
// opens the window.
func (c *core) enqueue(r *request) {
	q := r.q
	if len(q.pending) == cap(q.pending) {
		// flush hands each batch its region of the array and keeps the
		// rest, so a full array grows by room for many batches at once.
		q.pending = slices.Grow(q.pending, 64)
	}
	q.pending = append(q.pending, r)
	switch {
	case len(q.pending) >= c.cfg.MaxBatch || c.cfg.BatchWindow == 0:
		c.flush(q)
	case len(q.pending) == 1:
		gen := q.gen
		q.window = c.clk.after(c.cfg.BatchWindow, func() {
			if q.gen == gen {
				c.flush(q)
			}
		})
	}
}

// closeWindow cancels q's batch window and retires its generation.
func (c *core) closeWindow(q *queue) {
	if q.window != (timer{}) {
		c.clk.stop(q.window)
	}
	q.window = timer{}
	q.gen++
}

// flush closes q's open batch and hands it to the executor pool.
func (c *core) flush(q *queue) {
	if len(q.pending) == 0 {
		return
	}
	c.closeWindow(q)
	now := c.clk.now()
	b := &batch{q: q, reqs: slices.Clip(q.pending), factor: 1}
	q.pending = q.pending[len(q.pending):]
	q.batches++
	for _, r := range b.reqs {
		r.out.Flushed = now
	}
	c.metrics.Inc(q.series.batches)
	c.metrics.Observe(q.series.batchSize, float64(len(b.reqs)))
	c.ready = append(c.ready, b)
	c.dispatch()
}

// dispatch starts ready batches on idle executors, FIFO.
func (c *core) dispatch() {
	for c.free > 0 && len(c.ready) > 0 {
		b := c.ready[0]
		// Shift rather than reslice, so flush's append keeps the array.
		c.ready = slices.Delete(c.ready, 0, 1)
		c.free--
		c.active++
		now := c.clk.now()
		// Brownout rung 3: steer the batch off the hot delegate. A
		// steered batch runs on the steer delegate, does not heat the
		// die, and escapes DVFS throttling; a non-steered batch on a hot
		// die is stretched by the throttle factor — that stretch lands in
		// every rider's latency, and therefore in its tax (DVFS is AI tax
		// the thermal model charges).
		if c.qs != nil {
			if c.qs.ctl.Steer() {
				b.steered = true
				c.qs.deg.SteeredBatches++
				c.metrics.Inc("aitax_qos_steered_batches_total")
			} else {
				if f := c.qs.therm.ThrottleFactor(); f < 1 {
					b.factor = f
					c.qs.deg.ThrottledBatches++
					c.metrics.Inc("aitax_qos_throttled_batches_total")
				}
				c.qs.accrueBusy(now)
				c.qs.hot++
			}
		}
		for _, r := range b.reqs {
			r.out.Started = now
			r.out.Steered = b.steered
		}
		b.q.queued -= len(b.reqs)
		c.run(b)
	}
}

// service is b's executor time at the measured cost: the dispatch
// overhead plus the batch's service, stretched on a throttled die.
func (c *core) service(b *batch, cost BatchCost) time.Duration {
	if b.factor < 1 {
		return c.cfg.DispatchCost + time.Duration(float64(cost.Service)/b.factor)
	}
	return c.cfg.DispatchCost + cost.Service
}

// complete finishes a batch at its measured cost: each rider's Outcome
// (Finished = Started + service) and SLO verdict, then the executor's
// release. A failed batch (err non-nil) frees its executor without
// serving anyone.
func (c *core) complete(b *batch, cost BatchCost, err error) {
	if c.qs != nil && !b.steered {
		c.qs.accrueBusy(c.clk.now())
		c.qs.hot--
	}
	if err == nil {
		k, svc := len(b.reqs), c.service(b, cost)
		for _, r := range b.reqs {
			o := &r.out
			o.Finished = o.Started.Add(svc)
			o.BatchSize = k
			o.Stages = cost.Sum.Div(k)
			o.ComputeTax = (cost.Sum.Tax() + c.cfg.DispatchCost) / time.Duration(k)
			c.burn(o.Model, o.Latency(), false)
		}
	}
	c.free++
	c.active--
	c.dispatch()
	c.maybeStopTick()
}

// cancel pulls a request out of its open batch before dispatch, so the
// batch never pays for a client that left. It reports false once the
// request has been flushed: a flushed request runs to completion.
func (c *core) cancel(r *request) bool {
	q := r.q
	for i, p := range q.pending {
		if p == r {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			q.queued--
			if len(q.pending) == 0 {
				c.closeWindow(q)
			}
			c.metrics.Inc(c.queues[r.out.Model].series.cancelled)
			c.maybeStopTick()
			return true
		}
	}
	return false
}

// burn feeds one resolved request's SLO verdict into the controller's
// burn signal: a refused request (rejected at a full queue) is bad, a
// served one is scored by its latency against the model the client
// asked for — a downshifted request that meets the requested model's
// objective is a good outcome, which is the point of downshifting.
// Sheds never get here: the controller's own action must not hold its
// pressure up.
func (c *core) burn(model string, latency time.Duration, refused bool) {
	if c.qs == nil {
		return
	}
	covered, breached := false, false
	for _, obj := range c.cfg.SLO {
		cv, br := obj.Match(model, latency, refused)
		covered, breached = covered || cv, breached || br
	}
	switch {
	case !covered:
	case breached:
		c.qs.ctl.ObserveBad()
	default:
		c.qs.ctl.ObserveGood()
	}
}

// queueFrac is the fullest admission queue's occupancy in [0, 1].
func (c *core) queueFrac() float64 {
	n := 0
	for _, q := range c.order {
		n = max(n, q.queued)
	}
	return float64(n) / float64(c.cfg.QueueDepth)
}

// tick runs one brownout decision and re-arms while the core is open
// or holds work.
func (c *core) tick() {
	if !c.ticking {
		return // stopped after it fired
	}
	c.ticking = false
	t := c.qs.step(c.clk.now(), c.cfg.Workers, c.queueFrac(), c.cfg.Faults.ThermalTripAt)
	c.metrics.Set("aitax_qos_level", float64(t.Level))
	c.metrics.Set("aitax_qos_temp_c", c.qs.therm.TempC())
	if t.Changed {
		c.metrics.Inc("aitax_qos_transitions_total")
		if c.onTransition != nil {
			c.onTransition(t)
		}
	}
	if !c.closed || c.busy() {
		c.start()
	}
}
