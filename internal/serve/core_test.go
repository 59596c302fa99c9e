package serve

import (
	"testing"
	"time"

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

func (f *fakeClock) after(d time.Duration, fn func()) func() {
	f.cbs = append(f.cbs, fn)
	return func() {}
}

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
	if c.stopTick == nil {
		t.Fatal("tick disarmed while a batch is in service")
	}
	clk.cbs[0]()
	if c.stopTick == nil || c.qs.deg.Ticks != 1 {
		t.Fatalf("busy core did not re-arm its tick (ticks %d)", c.qs.deg.Ticks)
	}
	c.complete((*ran)[0], BatchCost{Batch: 1, Service: time.Millisecond}, nil)
	if c.stopTick != nil {
		t.Fatal("closed idle core kept its tick armed")
	}
	clk.cbs[len(clk.cbs)-1]() // a tick stopped after it fired is a no-op
	if c.qs.deg.Ticks != 1 {
		t.Fatalf("stopped tick ran: %d ticks", c.qs.deg.Ticks)
	}
}
