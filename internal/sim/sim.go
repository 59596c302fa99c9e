// Package sim provides a deterministic discrete-event simulation kernel.
//
// All hardware and OS behaviour in this repository (CPU scheduling, DSP
// offload, memory traffic, thermal state) is expressed as events on a
// virtual clock so that every experiment regenerates byte-identically.
// Time is measured in nanoseconds of virtual time.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = time.Duration

// Nanoseconds returns t as a plain int64 nanosecond count.
func (t Time) Nanoseconds() int64 { return int64(t) }

// Duration returns the span from simulation start to t.
func (t Time) Duration() Duration { return Duration(t) }

// Add returns t shifted forward by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the span t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// String renders the time as a duration from simulation start.
func (t Time) String() string { return Duration(t).String() }

// Event is a scheduled callback in virtual time.
type event struct {
	at   Time
	seq  uint64 // tiebreaker: FIFO among simultaneous events
	fn   func()
	dead bool
	// gen increments every time the event struct is recycled through the
	// engine's freelist, so an EventID issued for a previous occupancy
	// can never cancel the current one.
	gen uint32
}

// EventID identifies a scheduled event so it may be cancelled. The zero
// value is valid and cancels nothing; an ID whose event already fired
// (and was recycled) is detected by generation and ignored.
type EventID struct {
	ev  *event
	gen uint32
}

// eventQueue is a binary min-heap ordered by (at, seq). seq is unique,
// so the order is total and the pop sequence is fully determined. The
// heap is typed rather than built on container/heap, whose interface
// dispatch on every comparison and move dominated the engine's host cost.
type eventQueue []*event

// before reports whether a fires ahead of b.
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

func (q *eventQueue) push(ev *event) {
	h := append(*q, ev)
	// Sift the hole at the new leaf up to ev's place.
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if !ev.before(h[p]) {
			break
		}
		h[j] = h[p]
		j = p
	}
	h[j] = ev
	*q = h
}

// pop removes and returns the earliest event. The queue must be non-empty.
func (q *eventQueue) pop() *event {
	h := *q
	n := len(h) - 1
	top, last := h[0], h[n]
	h[n] = nil
	h = h[:n]
	if n > 0 {
		// Sift the hole at the root down to last's place.
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && h[r].before(h[c]) {
				c = r
			}
			if !h[c].before(last) {
				break
			}
			h[i] = h[c]
			i = c
		}
		h[i] = last
	}
	*q = h
	return top
}

// Engine is a discrete-event simulator. It is not safe for concurrent use;
// simulated concurrency is expressed through events, not goroutines.
type Engine struct {
	now   Time
	queue eventQueue
	seq   uint64
	// live counts the queued events that are not cancelled, so Pending
	// is O(1).
	live int
	// free recycles fired/cancelled event structs: a simulation schedules
	// millions of events but only ever has a bounded number pending, so
	// the freelist caps event allocation at the peak queue depth.
	free Free[event]
	// Limit guards against runaway simulations; zero means no limit.
	Limit Time
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at absolute virtual time at. Scheduling in the past
// panics: it always indicates a modelling bug.
func (e *Engine) Schedule(at Time, fn func()) EventID {
	e.seq++
	return e.schedule(at, e.seq-1, fn)
}

// Reservation is a block of sequence numbers set aside by Reserve.
// Events scheduled through it fire among simultaneous events as if
// they had been scheduled at the reservation, in reservation order, so
// a long list of future events, such as a load generator's arrivals,
// can keep one pending at a time and still fire in the order
// scheduling them all up front gives.
type Reservation struct {
	e         *Engine
	next, end uint64
}

// Reserve sets aside the next n sequence numbers. They count as
// scheduled.
func (e *Engine) Reserve(n int) *Reservation {
	e.seq += uint64(n)
	return &Reservation{e: e, next: e.seq - uint64(n), end: e.seq}
}

// Schedule is Engine.Schedule under the reservation's next sequence
// number. Scheduling past the end of the reservation panics.
func (r *Reservation) Schedule(at Time, fn func()) EventID {
	if r.next == r.end {
		panic("sim: reservation used up")
	}
	r.next++
	return r.e.schedule(at, r.next-1, fn)
}

func (e *Engine) schedule(at Time, seq uint64, fn func()) EventID {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := e.free.Get()
	if ev == nil {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn = at, seq, fn
	e.live++
	e.queue.push(ev)
	return EventID{ev: ev, gen: ev.gen}
}

// recycle returns a popped event to the freelist, bumping its
// generation so outstanding EventIDs for it become inert.
func (e *Engine) recycle(ev *event) {
	ev.gen++
	ev.fn = nil
	ev.dead = false
	e.free.Put(ev)
}

// After runs fn d from now. Negative d panics.
func (e *Engine) After(d Duration, fn func()) EventID {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.Schedule(e.now.Add(d), fn)
}

// Cancel prevents a pending event from firing. Cancelling an already-fired
// or already-cancelled event is a no-op (the generation check catches IDs
// whose event struct has since been recycled for a newer event).
func (e *Engine) Cancel(id EventID) {
	if id.ev != nil && id.ev.gen == id.gen && !id.ev.dead {
		id.ev.dead = true
		e.live--
	}
}

// Step fires the next pending event. It reports whether an event fired.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.queue.pop()
		if ev.dead {
			e.recycle(ev)
			continue
		}
		if ev.at < e.now {
			panic("sim: time went backwards")
		}
		e.now = ev.at
		e.live--
		fn := ev.fn
		// Recycle before firing: fn may schedule new events and reuse
		// this struct, which is safe once the generation is bumped.
		e.recycle(ev)
		fn()
		return true
	}
	return false
}

// Run fires events until the queue drains or the Limit is reached.
// It returns the final virtual time.
func (e *Engine) Run() Time {
	for e.Step() {
		if e.Limit > 0 && e.now > e.Limit {
			panic(fmt.Sprintf("sim: exceeded time limit %v", e.Limit))
		}
	}
	return e.now
}

// RunUntil fires events up to and including time t, leaving later events
// pending. The clock is advanced to t even if no event lands exactly there.
func (e *Engine) RunUntil(t Time) {
	for at, ok := e.Next(); ok && at <= t; at, ok = e.Next() {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}

// Next reports when the earliest live event is due, or false when none
// is pending. Cancelled events ahead of it are dropped from the queue.
func (e *Engine) Next() (Time, bool) {
	for len(e.queue) > 0 {
		if ev := e.queue[0]; !ev.dead {
			return ev.at, true
		}
		e.recycle(e.queue.pop())
	}
	return 0, false
}

// Pending reports the number of live events in the queue.
func (e *Engine) Pending() int { return e.live }

// Free is a LIFO free list of reusable values, such as the state of an
// in-flight call whose callbacks are built once. Get returns the value
// Put last, so a steady loop reuses one value and allocates none. The
// zero value is empty.
type Free[T any] struct{ s []*T }

// Get removes and returns the value put last, or nil when the list is
// empty.
func (f *Free[T]) Get() *T {
	n := len(f.s) - 1
	if n < 0 {
		return nil
	}
	v := f.s[n]
	f.s[n] = nil
	f.s = f.s[:n]
	return v
}

// Put adds v to the list.
func (f *Free[T]) Put(v *T) { f.s = append(f.s, v) }

// Scheduled reports how many events have ever been scheduled. A caller
// that compares two readings learns whether anything was scheduled in
// between, cancelled or not.
func (e *Engine) Scheduled() uint64 { return e.seq }

// Resource is a capacity-limited server with FIFO queueing: the building
// block for modelling a DSP, a memory port, or any other contended unit.
// Acquire requests enter service in request order; each holds one slot for
// its stated service duration.
type Resource struct {
	eng      *Engine
	capacity int
	inUse    int
	// waiters[whead:] are the queued requests. Serving advances whead;
	// Acquire slides the queue to the front of the backing array instead
	// of growing it while at least half the array is served entries, so
	// the array is recycled and stays proportional to the longest backlog.
	waiters []resWaiter
	whead   int
	// free holds idle service slots. At most capacity slots exist, each
	// with its completion callback built once.
	free Free[resSlot]

	// Accounting.
	busyTime    Duration // total slot-seconds of service completed
	lastChange  Time
	served      int
	queuedPeak  int
	totalQueued Duration // integral of queue length dt
}

type resWaiter struct {
	hold  Duration
	ready func(start, end Time)
}

// resSlot is one request in service.
type resSlot struct {
	resWaiter
	start, end Time
	done       func()
}

// NewResource creates a resource with the given parallel capacity.
func NewResource(eng *Engine, capacity int) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive")
	}
	return &Resource{eng: eng, capacity: capacity, lastChange: eng.Now()}
}

// Capacity returns the resource's parallel capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of occupied slots.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of waiting requests.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }

func (r *Resource) account() {
	now := r.eng.Now()
	dt := float64(now.Sub(r.lastChange))
	r.totalQueued += Duration(dt * float64(r.QueueLen()))
	r.lastChange = now
}

// Acquire requests hold time on the resource. ready is invoked when the
// request completes service, with the virtual times service started and
// ended. Requests are served FIFO.
func (r *Resource) Acquire(hold Duration, ready func(start, end Time)) {
	if hold < 0 {
		panic("sim: negative hold")
	}
	r.account()
	if len(r.waiters) == cap(r.waiters) && r.whead >= len(r.waiters)/2 {
		n := copy(r.waiters, r.waiters[r.whead:])
		clear(r.waiters[n:])
		r.waiters = r.waiters[:n]
		r.whead = 0
	}
	r.waiters = append(r.waiters, resWaiter{hold: hold, ready: ready})
	if q := r.QueueLen(); q > r.queuedPeak {
		r.queuedPeak = q
	}
	r.pump()
}

func (r *Resource) pump() {
	for r.inUse < r.capacity && r.whead < len(r.waiters) {
		w := r.waiters[r.whead]
		r.waiters[r.whead] = resWaiter{} // release the closure
		r.whead++
		r.inUse++
		s := r.free.Get()
		if s == nil {
			s = &resSlot{}
			s.done = func() { r.finish(s) }
		}
		s.resWaiter = w
		s.start = r.eng.Now()
		s.end = s.start.Add(w.hold)
		r.eng.Schedule(s.end, s.done)
	}
}

// finish completes the request in service on s.
func (r *Resource) finish(s *resSlot) {
	r.account()
	r.inUse--
	r.busyTime += s.hold
	r.served++
	// Free the slot before ready runs: a re-entrant Acquire may reuse
	// it, so ready gets copies of the slot's state.
	ready, start, end := s.ready, s.start, s.end
	s.ready = nil
	r.free.Put(s)
	if ready != nil {
		ready(start, end)
	}
	r.pump()
}

// Served returns the number of completed requests.
func (r *Resource) Served() int { return r.served }

// BusyTime returns the cumulative service time delivered.
func (r *Resource) BusyTime() Duration { return r.busyTime }

// QueuePeak returns the maximum observed queue length.
func (r *Resource) QueuePeak() int { return r.queuedPeak }

// MeanQueueLen returns the time-averaged queue length.
func (r *Resource) MeanQueueLen() float64 {
	r.account()
	total := float64(r.eng.Now())
	if total == 0 {
		return 0
	}
	return float64(r.totalQueued) / total
}

// RNG is a small deterministic PRNG (xorshift64*) used for all simulated
// stochastic behaviour. math/rand would also do, but a local implementation
// pins the sequence across Go releases.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (zero is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniform value in [0,1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniform value in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Norm returns a normally distributed value with the given mean and
// standard deviation (Box–Muller).
func (r *RNG) Norm(mean, stddev float64) float64 {
	u1 := r.Float64()
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// LogNorm returns a log-normally distributed value whose underlying normal
// has the given mu and sigma.
func (r *RNG) LogNorm(mu, sigma float64) float64 {
	return math.Exp(r.Norm(mu, sigma))
}

// Exp returns an exponentially distributed value with the given mean.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// Jitter returns d scaled by a factor drawn from N(1, cv) truncated at
// ±3cv and floored at 5% of d, modelling run-to-run variability with
// coefficient of variation cv.
func (r *RNG) Jitter(d Duration, cv float64) Duration {
	if cv <= 0 || d <= 0 {
		return d
	}
	f := r.Norm(1, cv)
	lo, hi := 1-3*cv, 1+3*cv
	if f < lo {
		f = lo
	}
	if f > hi {
		f = hi
	}
	if f < 0.05 {
		f = 0.05
	}
	return Duration(float64(d) * f)
}
