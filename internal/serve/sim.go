package serve

import (
	"fmt"
	"strconv"
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
	// arrivals counts arrival events not yet fired; the core closes
	// after the last one.
	arrivals int
}

func (s *simulator) now() sim.Time { return s.eng.Now() }

func (s *simulator) after(d time.Duration, f func()) func() {
	id := s.eng.After(d, f)
	return func() { s.eng.Cancel(id) }
}

// Simulate replays the arrival schedule against the serving policy in
// virtual time, pricing batches from the cost table. With traced set it
// additionally records per-request spans and queue-depth samples.
func Simulate(cfg Config, table *CostTable, arrivals []loadgen.Arrival, traced bool) (*SimResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &simulator{table: table, eng: sim.NewEngine(), arrivals: len(arrivals)}
	c, err := newCore(cfg, s, telemetry.NewRegistry(), s.run)
	if err != nil {
		return nil, err
	}
	s.core = c
	if traced {
		s.tracer = telemetry.NewTracer(s.eng.Now)
		c.onTransition = s.transition
	}
	reqs := make([]*request, len(arrivals))
	for i, a := range arrivals {
		if _, ok := c.queues[a.Model]; !ok {
			return nil, fmt.Errorf("serve: arrival %d asks for %q, not in the loaded set", a.ID, a.Model)
		}
		cls, err := qos.ParseClass(a.Class)
		if err != nil {
			return nil, fmt.Errorf("serve: arrival %d: %w", a.ID, err)
		}
		r := &request{out: Outcome{ID: a.ID, Model: a.Model, Class: cls}}
		reqs[i] = r
		s.eng.Schedule(sim.Time(a.At), func() { s.arrive(r) })
	}
	c.start()
	if len(arrivals) == 0 {
		c.close()
	}
	s.eng.Run()
	res := &SimResult{
		Outcomes: make([]Outcome, len(reqs)),
		End:      s.eng.Now(),
		Metrics:  c.metrics,
		Depth:    s.depth,
	}
	for i, r := range reqs {
		res.Outcomes[i] = r.out
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

// arrive delivers one arrival to the core, tracing its verdict.
func (s *simulator) arrive(r *request) {
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
	if verdict == admitted {
		s.core.enqueue(r)
	}
	if s.arrivals--; s.arrivals == 0 {
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
	cost := s.table.cost(b.q.name, k, b.steered)
	s.eng.After(s.core.service(b, cost), func() {
		b.span.End()
		s.core.complete(b, cost, nil)
		for _, r := range b.reqs {
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
