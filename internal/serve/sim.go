package serve

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"aitax/internal/loadgen"
	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
)

// DepthSample is one step of a model's admitted-queue depth, for the
// Chrome trace's counter tracks.
type DepthSample struct {
	Model string
	At    sim.Time
	Depth int
}

// ModelBatches counts the batches one model's queue flushed.
type ModelBatches struct {
	Model   string
	Batches int
}

// SimResult is everything one virtual-time load simulation produced.
type SimResult struct {
	// Outcomes are in arrival order, rejected requests included.
	Outcomes []Outcome
	// End is the virtual time the last request completed.
	End sim.Time
	// Batches counts flushed batches per model, in Config.Models order.
	Batches []ModelBatches
	// Spans, Flows and Metrics are the run's telemetry (spans only when
	// Simulate was asked to trace).
	Spans   []telemetry.Span
	Flows   []telemetry.Flow
	Metrics *telemetry.Registry
	// Depth samples every admitted-queue depth change (traced runs).
	Depth []DepthSample
	// Degradation is the brownout controller's run accounting, nil when
	// the config carried no QoS policy.
	Degradation *Degradation
	// steps are the run's admissions, refusals, executor pickups and
	// completions, in the order the engine fired them; orderedSteps
	// sorts them once, on first read.
	steps   []step
	ordered sync.Once
}

// Step kinds, in the order simultaneous steps are read (see
// orderedSteps): admission before refusal before completion before
// executor pickup.
const (
	evArrive = iota
	evRefuse
	evFinish
	evStart
)

// step is one event of a run the obs layer reads: its kind and the
// request's index in SimResult.Outcomes. Its time is the engine's clock
// when it fired, which is the Outcome's Arrival, Started or Finished.
type step struct {
	idx  uint32
	kind uint8
}

// simulator is the serving core's event adapter: one virtual clock,
// single-threaded, so one seed produces one history regardless of host
// parallelism. It prices batches from the cost table and adds the
// traced run's spans and queue-depth samples.
type simulator struct {
	core   *core
	table  *CostTable
	eng    *sim.Engine
	tracer *telemetry.Tracer
	depth  []DepthSample
	// reqs are the requests in arrival order; reqs[next] arrives next.
	// The core closes after the last.
	reqs     []request
	arrivals []loadgen.Arrival
	next     int
	// pending holds the arrivals' sequence numbers, so the one arrival
	// event pending at a time fires among simultaneous events where
	// scheduling every arrival up front would have; fire is its one
	// callback.
	pending *sim.Reservation
	fire    func()
	steps   []step
}

func (s *simulator) now() sim.Time { return s.eng.Now() }

func (s *simulator) after(d time.Duration, f func()) timer {
	return timer{ev: s.eng.After(d, f)}
}

func (s *simulator) stop(t timer) { s.eng.Cancel(t.ev) }

// log appends one step for r to the run's step log.
func (s *simulator) log(kind uint8, r *request) {
	s.steps = append(s.steps, step{uint32(r.idx), kind})
}

// Simulate replays the arrival schedule against the serving policy in
// virtual time, pricing batches from the cost table. With traced set it
// additionally records per-request spans and queue-depth samples.
func Simulate(cfg Config, table *CostTable, arrivals []loadgen.Arrival, traced bool) (*SimResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &simulator{
		table: table,
		eng:   sim.NewEngine(),
		reqs:  make([]request, len(arrivals)),
		steps: make([]step, 0, 3*len(arrivals)),
	}
	c, err := newCore(cfg, s, telemetry.NewRegistry(), s.run)
	if err != nil {
		return nil, err
	}
	s.core = c
	if traced {
		s.tracer = telemetry.NewTracer(s.eng.Now)
		c.onTransition = s.transition
	}
	s.arrivals = arrivals
	s.pending = s.eng.Reserve(len(arrivals))
	s.fire = s.arriveNext
	for i, a := range arrivals {
		if i > 0 && a.At < arrivals[i-1].At {
			return nil, fmt.Errorf("serve: arrival %d at %v precedes the one before it; arrivals must be sorted by time", a.ID, a.At)
		}
		if _, ok := c.queues[a.Model]; !ok {
			return nil, fmt.Errorf("serve: arrival %d asks for %q, not in the loaded set", a.ID, a.Model)
		}
		cls, err := qos.ParseClass(a.Class)
		if err != nil {
			return nil, fmt.Errorf("serve: arrival %d: %w", a.ID, err)
		}
		s.reqs[i] = request{idx: i, out: Outcome{ID: a.ID, Model: a.Model, Class: cls}}
	}
	c.start()
	if len(arrivals) == 0 {
		c.close()
	} else {
		s.pending.Schedule(sim.Time(arrivals[0].At), s.fire)
	}
	s.eng.Run()
	res := &SimResult{
		Outcomes: make([]Outcome, len(s.reqs)),
		End:      s.eng.Now(),
		Metrics:  c.metrics,
		Depth:    s.depth,
		steps:    s.steps,
	}
	for i := range s.reqs {
		res.Outcomes[i] = s.reqs[i].out
	}
	for _, q := range c.order {
		res.Batches = append(res.Batches, ModelBatches{Model: q.name, Batches: q.batches})
	}
	if s.tracer != nil {
		res.Spans, res.Flows = s.tracer.Spans(), s.tracer.Flows()
	}
	if c.qs != nil {
		res.Degradation = c.qs.finish()
	}
	return res, nil
}

func (s *simulator) sampleDepth(q *queue) {
	if s.tracer != nil {
		s.depth = append(s.depth, DepthSample{Model: q.name, At: s.eng.Now(), Depth: q.queued})
	}
}

// arriveNext delivers the next arrival to the core, logging and tracing
// its verdict, and arms the one after it.
func (s *simulator) arriveNext() {
	r := &s.reqs[s.next]
	if s.next++; s.next < len(s.reqs) {
		s.pending.Schedule(sim.Time(s.arrivals[s.next].At), s.fire)
	}
	verdict := s.core.admit(r)
	if s.tracer != nil {
		now, id := s.eng.Now(), strconv.Itoa(r.out.ID)
		switch verdict {
		case shed:
			sp := s.tracer.Instant("shed", "qos", telemetry.TrackCPU, nil, now)
			sp.SetAttr("model", r.out.Model)
			sp.SetAttr("class", r.out.Class.String())
			sp.SetAttr("request", id)
		case rejected:
			sp := s.tracer.Instant("reject", "serve", telemetry.TrackCPU, nil, now)
			sp.SetAttr("model", r.out.Model)
			sp.SetAttr("request", id)
		case admitted:
			s.sampleDepth(r.q)
			r.span = s.tracer.Start("request", "serve", telemetry.TrackCPU, nil)
			r.span.SetAttr("model", r.q.name)
			r.span.SetAttr("request", id)
			r.wait = s.tracer.Start("queued", "serve", telemetry.TrackCPU, r.span)
		}
	}
	// Every arrival is admitted or refused: the core closes only after
	// the last.
	if verdict == admitted {
		s.log(evArrive, r)
		s.core.enqueue(r)
	} else {
		s.log(evRefuse, r)
	}
	if s.next == len(s.reqs) {
		s.core.close()
	}
}

// run prices a dispatched batch from the cost table and completes it
// after its service time.
func (s *simulator) run(b *batch) {
	k := len(b.reqs)
	if s.tracer != nil {
		b.span = s.tracer.Start("batch", "serve", telemetry.TrackCPU, nil)
		b.span.SetAttr("model", b.q.name)
		b.span.SetAttr("size", strconv.Itoa(k))
		if b.steered {
			b.span.SetAttr("steered", "true")
		}
		for _, r := range b.reqs {
			r.wait.End()
		}
		s.sampleDepth(b.q)
	}
	for _, r := range b.reqs {
		s.log(evStart, r)
	}
	cost := s.table.cost(b.q.name, k, b.steered)
	s.eng.After(s.core.service(b, cost), func() {
		b.span.End()
		s.core.complete(b, cost, nil)
		for _, r := range b.reqs {
			s.log(evFinish, r)
			r.span.End()
			s.core.metrics.Observe(b.q.series.latency, ms(r.out.Latency()))
			s.core.metrics.Observe(b.q.series.tax, ms(r.out.Tax()))
		}
	})
}

// transition marks a ladder level change on the trace.
func (s *simulator) transition(t qos.Tick) {
	sp := s.tracer.Instant(fmt.Sprintf("qos L%d->L%d", t.From, t.Level), "qos", telemetry.TrackCPU, nil, s.eng.Now())
	sp.SetAttr("driver", t.Driver)
	sp.SetAttr("pressure", fmt.Sprintf("%.2f", t.Pressure))
}
