package sim

import (
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var order []int
	e.Schedule(30, func() { order = append(order, 3) })
	e.Schedule(10, func() { order = append(order, 1) })
	e.Schedule(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events fired out of order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30ns", e.Now())
	}
}

func TestEngineFIFOAmongSimultaneous(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

// Events scheduled late through a reservation fire among simultaneous
// events where scheduling them at the reservation would have: ahead of
// events scheduled after it, in reservation order. A reservation hands
// out each of its numbers once.
func TestReservationKeepsScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []string
	res := e.Reserve(2)
	e.Schedule(100, func() { order = append(order, "later") })
	e.Schedule(50, func() {
		res.Schedule(100, func() { order = append(order, "reserved 0") })
		res.Schedule(100, func() { order = append(order, "reserved 1") })
	})
	e.Run()
	if want := []string{"reserved 0", "reserved 1", "later"}; !slices.Equal(order, want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	if e.Scheduled() != 4 {
		t.Fatalf("Scheduled() = %d, want 4 (reserved numbers count)", e.Scheduled())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a used-up reservation scheduled an event")
		}
	}()
	res.Schedule(200, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.Schedule(10, func() {
		fired++
		e.After(5, func() { fired++ })
	})
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 15 {
		t.Fatalf("clock = %v, want 15ns", e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	e.Run()
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	id := e.Schedule(10, func() { fired = true })
	e.Cancel(id)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25ns", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d events after Run, want 4", len(fired))
	}
}

func TestResourceSerializesBeyondCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dsp", 1)
	var ends []Time
	for i := 0; i < 3; i++ {
		r.Acquire(100*time.Nanosecond, func(start, end Time) { ends = append(ends, end) })
	}
	e.Run()
	want := []Time{100, 200, 300}
	for i, w := range want {
		if ends[i] != w {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.Served() != 3 {
		t.Fatalf("served = %d, want 3", r.Served())
	}
}

func TestResourceParallelCapacity(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "cpu", 4)
	done := 0
	for i := 0; i < 4; i++ {
		r.Acquire(50*time.Nanosecond, func(start, end Time) {
			done++
			if end != 50 {
				t.Errorf("end = %v, want 50ns", end)
			}
		})
	}
	e.Run()
	if done != 4 {
		t.Fatalf("done = %d, want 4", done)
	}
}

func TestResourceUtilization(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "u", 1)
	r.Acquire(100*time.Nanosecond, nil)
	e.Run()
	// Busy 100ns of a 100ns sim: utilization 1.0.
	if u := r.Utilization(); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization = %v, want ~1", u)
	}
	if r.BusyTime() != 100*time.Nanosecond {
		t.Fatalf("busy = %v, want 100ns", r.BusyTime())
	}
}

func TestResourceQueueStats(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "q", 1)
	for i := 0; i < 5; i++ {
		r.Acquire(10*time.Nanosecond, nil)
	}
	if r.QueueLen() != 4 {
		t.Fatalf("queue = %d, want 4", r.QueueLen())
	}
	e.Run()
	if r.QueuePeak() != 4 {
		t.Fatalf("queue peak = %d, want 4", r.QueuePeak())
	}
	if r.QueueLen() != 0 {
		t.Fatalf("queue after run = %d, want 0", r.QueueLen())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := 0
	a2 := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Fatalf("different seeds coincided %d/1000 times", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	n := 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Norm(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / float64(n)
	variance := sumsq/float64(n) - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("mean = %v, want ~10", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestJitterBounds(t *testing.T) {
	r := NewRNG(5)
	d := 1000 * time.Nanosecond
	for i := 0; i < 10000; i++ {
		j := r.Jitter(d, 0.1)
		if j < 700 || j > 1300 {
			t.Fatalf("jitter %v outside ±3cv", j)
		}
	}
	if r.Jitter(d, 0) != d {
		t.Fatal("zero cv must be identity")
	}
}

func TestIntnUniform(t *testing.T) {
	r := NewRNG(13)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("bucket %d count %d not ~10000", i, c)
		}
	}
}

func TestPropertyResourceConservation(t *testing.T) {
	// Property: for any batch of jobs on a capacity-1 resource, total busy
	// time equals the sum of holds and the finish time equals that sum.
	f := func(holds []uint16) bool {
		e := NewEngine()
		r := NewResource(e, "p", 1)
		var total Duration
		for _, h := range holds {
			d := Duration(h) * time.Nanosecond
			total += d
			r.Acquire(d, nil)
		}
		end := e.Run()
		return r.BusyTime() == total && end == Time(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEngineMonotonicClock(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine()
		last := Time(-1)
		ok := true
		for _, d := range delays {
			e.After(Duration(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRNGLogNorm(t *testing.T) {
	r := NewRNG(17)
	for i := 0; i < 1000; i++ {
		if r.LogNorm(0, 0.5) <= 0 {
			t.Fatal("lognormal values must be positive")
		}
	}
}

func TestRNGExp(t *testing.T) {
	r := NewRNG(19)
	n := 50000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(5)
		if v < 0 {
			t.Fatal("exponential must be non-negative")
		}
		sum += v
	}
	mean := sum / float64(n)
	if mean < 4.8 || mean > 5.2 {
		t.Fatalf("exp mean = %v, want ~5", mean)
	}
}

func TestEngineLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 100
	var tick func()
	tick = func() { e.After(10, tick) }
	tick()
	defer func() {
		if recover() == nil {
			t.Fatal("runaway simulation must hit the limit")
		}
	}()
	e.Run()
}

func TestNegativeAfterPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay must panic")
		}
	}()
	e.After(-1, func() {})
}

func TestResourceMeanQueueLen(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "q", 1)
	for i := 0; i < 3; i++ {
		r.Acquire(10*time.Nanosecond, nil)
	}
	e.Run()
	if r.MeanQueueLen() <= 0 {
		t.Fatal("queued work must register a mean queue length")
	}
	if r.Name() != "q" || r.Capacity() != 1 {
		t.Fatal("accessors broken")
	}
}

func TestCancelledEventsSkippedInRunUntil(t *testing.T) {
	e := NewEngine()
	id := e.Schedule(5, func() { t := 0; _ = t })
	e.Cancel(id)
	fired := false
	e.Schedule(10, func() { fired = true })
	e.RunUntil(20)
	if !fired {
		t.Fatal("live event after cancelled one did not fire")
	}
}

func TestTimeAccessors(t *testing.T) {
	tm := Time(1500)
	if tm.Nanoseconds() != 1500 {
		t.Fatal("Nanoseconds wrong")
	}
	if tm.Duration() != 1500*time.Nanosecond {
		t.Fatal("Duration wrong")
	}
	if tm.String() == "" {
		t.Fatal("String empty")
	}
}

func TestResourceInUse(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "x", 2)
	r.Acquire(10, nil)
	if r.InUse() != 1 {
		t.Fatalf("in use = %d", r.InUse())
	}
	e.Run()
	if r.InUse() != 0 {
		t.Fatal("slot not released")
	}
}

func TestNewResourceRejectsZeroCapacity(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	NewResource(e, "bad", 0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	r := NewRNG(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) must panic")
		}
	}()
	r.Intn(0)
}

func TestZeroSeedRemapped(t *testing.T) {
	a, b := NewRNG(0), NewRNG(0)
	if a.Uint64() != b.Uint64() {
		t.Fatal("zero seed must be deterministic")
	}
}

// TestResourceScriptedScenario pins the exact service schedule and
// accounting of a capacity-2 resource through a zero-hold request, a
// queued backlog, a re-entrant Acquire from inside a ready callback and
// a late arrival after an idle gap.
func TestResourceScriptedScenario(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dsp", 2)
	type span struct{ start, end Time }
	got := map[string]span{}
	var order []string
	rec := func(name string) func(start, end Time) {
		return func(start, end Time) {
			got[name] = span{start, end}
			order = append(order, name)
		}
	}
	r.Acquire(100, rec("A"))
	r.Acquire(0, rec("B"))
	r.Acquire(50, rec("C"))
	r.Acquire(30, func(start, end Time) {
		rec("D")(start, end)
		// Re-entrant: D's slot was released before ready ran, so E
		// enters service at once.
		r.Acquire(20, rec("E"))
		if r.InUse() != 2 {
			t.Errorf("in use after re-entrant Acquire = %d, want 2", r.InUse())
		}
	})
	if r.QueueLen() != 2 || r.InUse() != 2 {
		t.Fatalf("after submit: queue %d in use %d, want 2 and 2", r.QueueLen(), r.InUse())
	}
	e.Schedule(150, func() { r.Acquire(10, rec("F")) })
	e.Run()

	want := map[string]span{
		"A": {0, 100}, "B": {0, 0}, "C": {0, 50},
		"D": {50, 80}, "E": {80, 100}, "F": {150, 160},
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s served %v, want %v", name, got[name], w)
		}
	}
	wantOrder := []string{"B", "C", "D", "A", "E", "F"}
	for i, name := range wantOrder {
		if i >= len(order) || order[i] != name {
			t.Fatalf("completion order %v, want %v", order, wantOrder)
		}
	}
	if r.Served() != 6 {
		t.Errorf("served = %d, want 6", r.Served())
	}
	if r.BusyTime() != 210 {
		t.Errorf("busy = %v, want 210ns", r.BusyTime())
	}
	if r.QueuePeak() != 2 {
		t.Errorf("queue peak = %d, want 2", r.QueuePeak())
	}
	if r.QueueLen() != 0 || r.InUse() != 0 {
		t.Errorf("after run: queue %d in use %d, want 0 and 0", r.QueueLen(), r.InUse())
	}
	// Two slots busy over [0,100), one over [150,160): 105/160.
	if u := r.Utilization(); u != 105.0/160 {
		t.Errorf("utilization = %v, want %v", u, 105.0/160)
	}
	// D waited over [0,50): 50/160.
	if q := r.MeanQueueLen(); q != 50.0/160 {
		t.Errorf("mean queue = %v, want %v", q, 50.0/160)
	}
}

// TestEngineOrderMatchesStableSort drives the engine with a random
// interleaving of Schedule (many at equal times, some from inside
// firing events), Cancel (including stale IDs whose event already fired
// and was recycled), Step and RunUntil, and checks every firing against
// a reference: the pending events in scheduling order, stably sorted by
// time, which is the (at, seq) order the heap must reproduce.
func TestEngineOrderMatchesStableSort(t *testing.T) {
	type refEvent struct {
		at         Time
		tag        int
		dead, done bool
	}
	for seed := uint64(1); seed <= 40; seed++ {
		rng := NewRNG(seed)
		e := NewEngine()
		var (
			ids     []EventID
			issued  []*refEvent // by tag
			pending []*refEvent // reference queue, in scheduling order
			fired   []int       // tags in engine firing order
			want    []int       // tags in reference order
			refNow  Time
		)
		var schedule func(at Time)
		schedule = func(at Time) {
			tag := len(ids)
			ids = append(ids, e.Schedule(at, func() {
				fired = append(fired, tag)
				if tag%4 == 0 {
					schedule(e.Now().Add(Duration(rng.Intn(3))))
				}
			}))
			ev := &refEvent{at: at, tag: tag}
			issued = append(issued, ev)
			pending = append(pending, ev)
		}
		// refPeek returns the reference's next live event, or nil when
		// none remains.
		refPeek := func() *refEvent {
			sort.SliceStable(pending, func(i, j int) bool { return pending[i].at < pending[j].at })
			for len(pending) > 0 && pending[0].dead {
				pending = pending[1:]
			}
			if len(pending) == 0 {
				return nil
			}
			return pending[0]
		}
		refFire := func(ev *refEvent) {
			pending = pending[1:]
			ev.done = true
			refNow = ev.at
			want = append(want, ev.tag)
		}
		for op := 0; op < 400; op++ {
			switch k := rng.Intn(20); {
			case k < 9:
				schedule(e.Now().Add(Duration(rng.Intn(4))))
			case k < 12:
				if len(ids) > 0 {
					i := rng.Intn(len(ids))
					e.Cancel(ids[i])
					if !issued[i].done {
						issued[i].dead = true
					}
				}
			case k < 17:
				stepped := e.Step()
				ev := refPeek()
				if stepped != (ev != nil) {
					t.Fatalf("seed %d op %d: Step = %v, reference has next %v", seed, op, stepped, ev != nil)
				}
				if ev != nil {
					refFire(ev)
				}
			default:
				until := e.Now().Add(Duration(rng.Intn(6)))
				e.RunUntil(until)
				for ev := refPeek(); ev != nil && ev.at <= until; ev = refPeek() {
					refFire(ev)
				}
				if refNow < until {
					refNow = until
				}
			}
			if len(fired) != len(want) {
				t.Fatalf("seed %d op %d: fired %v, reference %v", seed, op, fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("seed %d op %d: fired %v, reference %v", seed, op, fired, want)
				}
			}
			if e.Now() != refNow {
				t.Fatalf("seed %d op %d: now %v, reference %v", seed, op, e.Now(), refNow)
			}
			live := 0
			for _, ev := range pending {
				if !ev.dead {
					live++
				}
			}
			if e.Pending() != live {
				t.Fatalf("seed %d op %d: pending %d, reference %d", seed, op, e.Pending(), live)
			}
		}
	}
}

func TestEngineStepDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 16; i++ {
		e.After(Duration(i), fn)
	}
	e.Run()
	if n := testing.AllocsPerRun(1000, func() {
		e.After(3, fn)
		e.Step()
	}); n != 0 {
		t.Fatalf("steady-state After+Step allocates %v, want 0", n)
	}
}

func TestResourceAcquireDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dsp", 2)
	ready := func(start, end Time) {}
	burst := func() {
		for i := 0; i < 5; i++ {
			r.Acquire(Duration(10+i), ready)
		}
		e.Run()
	}
	burst()
	if n := testing.AllocsPerRun(100, burst); n != 0 {
		t.Fatalf("steady-state Acquire allocates %v per burst of 5, want 0", n)
	}
}

// BenchmarkEngineStep measures one schedule-and-fire on an engine that
// keeps 64 events pending, the depth of a busy per-frame simulation.
func BenchmarkEngineStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Duration(i*7), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(Duration(i%97), fn)
		e.Step()
	}
}

// BenchmarkResourceAcquire measures one request through a contended
// capacity-1 resource: enqueue, service, completion callback.
func BenchmarkResourceAcquire(b *testing.B) {
	e := NewEngine()
	r := NewResource(e, "dsp", 1)
	ready := func(start, end Time) {}
	for i := 0; i < 4; i++ {
		r.Acquire(10, ready)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(10, ready)
		e.Step()
	}
}

// A resource whose backlog never drains must not grow its waiter array
// with the number of requests served.
func TestResourceBacklogArrayBounded(t *testing.T) {
	e := NewEngine()
	r := NewResource(e, "dsp", 1)
	for i := 0; i < 4; i++ {
		r.Acquire(10, nil)
	}
	for i := 0; i < 10000; i++ {
		r.Acquire(10, nil)
		e.Step()
	}
	if r.QueueLen() != 3 {
		t.Fatalf("queue = %d, want 3", r.QueueLen())
	}
	if c := cap(r.waiters); c > 16 {
		t.Fatalf("waiter array cap = %d after 10000 requests at backlog 3", c)
	}
}
