package serve

import (
	"testing"
	"time"

	"aitax/internal/models"
	"aitax/internal/qos"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
)

// fakeClock is a hand-driven clock. after queues the callback for the
// test to fire, and its stop always loses the race: the callback has
// already fired and is waiting for the core's lock, exactly what a wall
// timer's Stop returning false leaves behind.
type fakeClock struct {
	t   sim.Time
	cbs []func()
}

func (f *fakeClock) now() sim.Time { return f.t }

func (f *fakeClock) after(d time.Duration, fn func()) timer {
	f.cbs = append(f.cbs, fn)
	return timer{}
}

func (f *fakeClock) stop(timer) {}

// fakeCore builds a core on a fake clock whose executor only records
// the batches it is handed.
func fakeCore(t *testing.T, cfg Config) (*core, *fakeClock, *[]*batch) {
	t.Helper()
	clk := &fakeClock{}
	var ran []*batch
	c, err := newCore(cfg, clk, telemetry.NewRegistry(), func(b *batch) { ran = append(ran, b) })
	if err != nil {
		t.Fatal(err)
	}
	return c, clk, &ran
}

// arrive admits one request for model on the core and enqueues it.
func arrive(t *testing.T, c *core, model string) *request {
	t.Helper()
	r := &request{out: Outcome{Model: model}}
	if v := c.admit(r); v != admitted {
		t.Fatalf("admission verdict %v, want admitted", v)
	}
	c.enqueue(r)
	return r
}

func TestStaleWindowCallbackCannotFlushLaterBatch(t *testing.T) {
	cfg := testConfig(t)
	cfg.MaxBatch = 2
	c, clk, ran := fakeCore(t, cfg)
	name := cfg.Models[0].Name
	q := c.queues[name]

	arrive(t, c, name) // opens window 1
	arrive(t, c, name) // max-batch flush; stopping window 1 loses the race
	if len(*ran) != 1 || len((*ran)[0].reqs) != 2 {
		t.Fatalf("max-batch flush dispatched %d batches", len(*ran))
	}
	clk.t = sim.Time(time.Millisecond)
	late := arrive(t, c, name) // opens window 2
	if len(clk.cbs) != 2 {
		t.Fatalf("%d windows armed, want 2", len(clk.cbs))
	}

	clk.cbs[0]() // window 1's callback finally runs
	if len(q.pending) != 1 || q.batches != 1 {
		t.Fatalf("stale window flushed the next batch: pending %d, batches %d", len(q.pending), q.batches)
	}
	clk.t = sim.Time(time.Millisecond + cfg.BatchWindow)
	clk.cbs[1]()
	if q.batches != 2 || late.out.Flushed != clk.t {
		t.Fatalf("window 2 flush: batches %d, flushed at %v, want 2 at %v", q.batches, late.out.Flushed, clk.t)
	}
}

// A request cancelled out of its batch retires the window too: the
// window's callback must not flush the next rider's batch early.
func TestCancelRetiresWindow(t *testing.T) {
	cfg := testConfig(t)
	c, clk, _ := fakeCore(t, cfg)
	name := cfg.Models[0].Name
	q := c.queues[name]

	gone := arrive(t, c, name)
	if !c.cancel(gone) {
		t.Fatal("queued request not cancellable")
	}
	arrive(t, c, name)
	clk.cbs[0]()
	if len(q.pending) != 1 || q.batches != 0 {
		t.Fatalf("cancelled window flushed the next batch: pending %d, batches %d", len(q.pending), q.batches)
	}
	if got := c.metrics.Counter(telemetry.Labeled("aitax_serve_cancelled_total", "model", name)); got != 1 {
		t.Fatalf("cancelled counter %v, want 1", got)
	}
}

// The decision tick re-arms while the core is open or holds work, and
// stops once it is closed and idle.
func TestTickRearmsUntilClosedAndIdle(t *testing.T) {
	cfg := qosConfig(t).Defaults()
	cfg.BatchWindow = 0
	c, clk, ran := fakeCore(t, cfg)
	c.start()
	name := cfg.Models[0].Name
	arrive(t, c, name)
	c.close()
	if !c.ticking {
		t.Fatal("tick disarmed while a batch is in service")
	}
	clk.cbs[0]()
	if !c.ticking || c.qs.deg.Ticks != 1 {
		t.Fatalf("busy core did not re-arm its tick (ticks %d)", c.qs.deg.Ticks)
	}
	c.complete((*ran)[0], BatchCost{Service: time.Millisecond}, nil)
	if c.ticking {
		t.Fatal("closed idle core kept its tick armed")
	}
	clk.cbs[len(clk.cbs)-1]() // a tick stopped after it fired is a no-op
	if c.qs.deg.Ticks != 1 {
		t.Fatalf("stopped tick ran: %d ticks", c.qs.deg.Ticks)
	}
}

// newCore renders each queue's registry names exactly as
// telemetry.Labeled does, model names that need escaping included, and
// the shed counter's per-class names likewise.
func TestQueueSeriesMatchesLabeled(t *testing.T) {
	cfg := testConfig(t)
	cfg.Models = nil
	for _, name := range []string{"MobileNet 1.0 v1", `quote"d`, `back\slash`, "new\nline"} {
		cfg.Models = append(cfg.Models, &models.Model{Name: name})
	}
	c, _, _ := fakeCore(t, cfg)
	for _, q := range c.order {
		for _, n := range []struct{ got, base string }{
			{q.series.requests, "aitax_serve_requests_total"},
			{q.series.rejected, "aitax_serve_rejected_total"},
			{q.series.cancelled, "aitax_serve_cancelled_total"},
			{q.series.downshift, "aitax_qos_downshift_total"},
			{q.series.batches, "aitax_serve_batches_total"},
			{q.series.batchSize, "aitax_serve_batch_size"},
			{q.series.latency, "aitax_serve_latency_ms"},
			{q.series.tax, "aitax_serve_tax_ms"},
			{q.series.service, "aitax_serve_service_ms"},
		} {
			if want := telemetry.Labeled(n.base, "model", q.name); n.got != want {
				t.Errorf("queue %q %s = %q, want %q", q.name, n.base, n.got, want)
			}
		}
	}
	for cls := qos.Class(0); cls < qos.NumClasses; cls++ {
		if want := telemetry.Labeled("aitax_qos_shed_total", "class", cls.String()); shedSeries[cls] != want {
			t.Errorf("shed series %v = %q, want %q", cls, shedSeries[cls], want)
		}
	}
}
