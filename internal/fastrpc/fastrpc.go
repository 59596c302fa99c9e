// Package fastrpc models Qualcomm's FastRPC CPU↔DSP transport as the
// paper's Fig. 7 draws it: a one-time session setup that maps the DSP
// into the application process, then per-call user→kernel→driver
// crossings, cache maintenance for shared buffers, and the co-processor
// dispatch. The DSP itself is a capacity-1 resource, so concurrent
// clients queue (the multi-tenancy effect of Fig. 9).
//
// The transport is fallible when a faults.Injector is attached: invoke
// attempts can fail in transport or hang until their deadline, session
// setup can fail (leaving the channel cold and re-initializable),
// driver stalls stretch DSP occupancy, and a thermal trip takes the
// accelerator down for good. The channel retries retryable failures
// with exponential backoff; every failed attempt and backoff wait
// consumes virtual time and is reported in Breakdown.Retry — that time
// is pure AI tax.
package fastrpc

import (
	"time"

	"aitax/internal/faults"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
)

// Breakdown itemizes where one offloaded call spent its time.
type Breakdown struct {
	// Setup is the session-establishment share (zero on warm calls).
	Setup time.Duration
	// Transport covers kernel crossings, cache flush and DSP wakeup.
	Transport time.Duration
	// Queue is time spent waiting for the DSP behind other clients.
	Queue time.Duration
	// Exec is the on-DSP execution time (including any injected driver
	// stall — the run-to-run variability tail of §III).
	Exec time.Duration
	// Retry is virtual time burned by failed attempts and backoff waits
	// before the call succeeded (or gave up). Zero on fault-free calls.
	Retry time.Duration
	// Attempts is how many invoke attempts ran (1 on fault-free calls,
	// 0 when session setup itself failed).
	Attempts int
	// Faults counts injected faults this call absorbed (failed attempts
	// plus driver stalls).
	Faults int
	// Err is the terminal failure after retries were exhausted, or nil.
	// When Err is set only Setup and Retry carry time.
	Err error
}

// Total returns the end-to-end call latency, retries included.
func (b Breakdown) Total() time.Duration {
	return b.Setup + b.Transport + b.Queue + b.Exec + b.Retry
}

// Stage is one labelled step of the Fig. 7 call flow.
type Stage struct {
	Name     string
	Duration time.Duration
}

// Channel is a FastRPC connection from one process to the DSP.
type Channel struct {
	eng    *sim.Engine
	params soc.RPCParams
	dsp    *sim.Resource

	state   int // 0 = cold, 1 = setting up, 2 = ready
	waiters []func(error)

	// Tracer, when set, records each call's sub-steps (rpc-down, the DSP
	// execution, rpc-up) as spans with CPU↔DSP flow links. Nil disables
	// tracing at zero cost.
	Tracer *telemetry.Tracer
	// Metrics, when set, aggregates per-call transport/queue/exec
	// latencies. Nil disables collection at zero cost.
	Metrics *telemetry.Registry
	// Faults, when set, injects transport/timeout/setup/stall/thermal
	// failures into the call flow. Nil keeps the channel infallible.
	Faults *faults.Injector

	// Accounting.
	calls       int
	retryTotal  time.Duration
	failedCalls int

	idle sim.Free[call] // finished calls, kept for reuse
}

const (
	stateCold = iota
	stateSettingUp
	stateReady
)

// NewChannel creates a cold channel. dsp is the shared DSP resource; all
// channels offloading to the same DSP must share it.
func NewChannel(eng *sim.Engine, params soc.RPCParams, dsp *sim.Resource) *Channel {
	return &Channel{eng: eng, params: params, dsp: dsp}
}

// Ready reports whether the session is established (warm).
func (c *Channel) Ready() bool { return c.state == stateReady }

// Calls returns the number of completed invocations.
func (c *Channel) Calls() int { return c.calls }

// FailedCalls returns the number of invocations that exhausted their
// retries (or hit a non-retryable fault) and reported an error.
func (c *Channel) FailedCalls() int { return c.failedCalls }

// RetryTotal returns the cumulative virtual time burned in failed
// attempts and backoff waits across all calls.
func (c *Channel) RetryTotal() time.Duration { return c.retryTotal }

// Invoke offloads a unit of DSP work: execTime on the DSP moving
// payloadBytes through shared buffers. onDone receives the per-call
// breakdown. The first call on a cold channel pays the session setup —
// the cold-start penalty of §IV-C. Check Breakdown.Err: with a fault
// injector attached the call can fail after exhausting its retries.
func (c *Channel) Invoke(payloadBytes int64, execTime time.Duration, onDone func(Breakdown)) {
	c.InvokeSpan(payloadBytes, execTime, nil, "dsp-exec", onDone)
}

// InvokeSpan is Invoke with telemetry context: parent (may be nil)
// becomes the parent of the call's spans, and label names the on-DSP
// execution span ("infer" for inference, "pre-dsp" for offloaded
// pre-processing, "graph-init" for weight download).
func (c *Channel) InvokeSpan(payloadBytes int64, execTime time.Duration, parent *telemetry.ActiveSpan, label string, onDone func(Breakdown)) {
	if execTime < 0 || payloadBytes < 0 {
		panic("fastrpc: negative invoke arguments")
	}
	k := c.idle.Get()
	if k == nil {
		k = &call{c: c}
		k.startFn, k.sentFn, k.ranFn, k.returnedFn = k.start, k.sent, k.ran, k.returned
	}
	k.payloadBytes, k.execTime, k.parent, k.label, k.onDone = payloadBytes, execTime, parent, label, onDone
	k.issued = c.eng.Now()
	switch c.state {
	case stateReady:
		k.start(nil)
	case stateSettingUp:
		c.waiters = append(c.waiters, k.startFn)
	case stateCold:
		c.state = stateSettingUp
		c.waiters = append(c.waiters, k.startFn)
		c.beginSetup(1)
	}
}

// call is the in-flight state of one invocation. Its fault-free steps
// are callbacks built once, and the channel keeps finished calls, so a
// steady call loop allocates none.
type call struct {
	c            *Channel
	payloadBytes int64
	execTime     time.Duration
	parent       *telemetry.ActiveSpan
	label        string
	onDone       func(Breakdown)
	issued       sim.Time
	setupShare   time.Duration

	// The attempt in flight.
	attempt                  int
	retryAccum               time.Duration
	t0, enqueued, end        sim.Time
	outbound, inbound, flush time.Duration
	hold, queue, stall       time.Duration
	down, exec               *telemetry.ActiveSpan

	startFn    func(error)
	sentFn     func()
	ranFn      func(start, end sim.Time)
	returnedFn func()
}

// finish releases k to the channel, then hands b to its caller.
func (k *call) finish(b Breakdown) {
	c, onDone := k.c, k.onDone
	k.parent, k.onDone, k.down, k.exec = nil, nil, nil, nil
	c.idle.Put(k)
	if onDone != nil {
		onDone(b)
	}
}

// start runs once the session is up (err nil) or failed to come up.
func (k *call) start(err error) {
	c := k.c
	if err != nil {
		// Session setup never came up: the call fails without an
		// invoke attempt. The wait is pure retry tax.
		wasted := c.eng.Now().Sub(k.issued)
		c.failCall(Breakdown{Retry: wasted, Err: err}, k)
		return
	}
	k.setupShare = c.eng.Now().Sub(k.issued)
	if k.setupShare > 0 {
		c.Tracer.Emit("rpc-setup", "fastrpc", telemetry.TrackCPU, k.parent, k.issued, c.eng.Now())
	}
	k.attempt, k.retryAccum = 1, 0
	k.invokeAttempt()
}

// beginSetup runs one session-setup attempt. Setup failures are retried
// with the same backoff policy as invokes; if every attempt fails the
// channel returns to cold — not Ready — so a later call can try to
// establish the session from scratch.
func (c *Channel) beginSetup(attempt int) {
	t0 := c.eng.Now()
	c.eng.After(c.params.SessionSetup, func() {
		if err := c.Faults.SessionSetup(); err != nil {
			c.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", faults.SiteSessionSetup.String()))
			if attempt < c.Faults.MaxAttempts() {
				backoff := c.Faults.BackoffFor(attempt)
				c.eng.After(backoff, func() {
					c.Tracer.Emit("rpc-retry", "faults", telemetry.TrackCPU, nil, t0, c.eng.Now())
					c.Metrics.Inc("aitax_faults_retries_total")
					c.beginSetup(attempt + 1)
				})
				return
			}
			// Exhausted: the channel is cold again, and every queued
			// caller learns the session never came up.
			c.state = stateCold
			ws := c.waiters
			c.waiters = nil
			ferr := &faults.Error{Site: faults.SiteSessionSetup, Attempts: attempt, Target: "fastrpc"}
			for _, w := range ws {
				w(ferr)
			}
			return
		}
		c.state = stateReady
		ws := c.waiters
		c.waiters = nil
		for _, w := range ws {
			w(nil)
		}
	})
}

// invokeAttempt runs attempt k.attempt; k.retryAccum carries the
// virtual time already burned by earlier failed attempts and backoffs.
func (k *call) invokeAttempt() {
	c := k.c
	attempt, retryAccum, label := k.attempt, k.retryAccum, k.label
	// Outbound: user→kernel crossing ×2 (submit + driver signal), cache
	// flush for the payload, DSP wakeup.
	kb := (k.payloadBytes + 1023) / 1024
	k.flush = time.Duration(kb) * c.params.CacheFlushPerKB
	k.outbound = 2*c.params.KernelCrossing + k.flush + c.params.DSPWakeup
	k.inbound = 2 * c.params.KernelCrossing // completion signal + return

	t0 := c.eng.Now()
	k.t0 = t0
	out := c.Faults.RPCAttempt(t0)
	switch out.Kind {
	case faults.RPCAccelDown:
		// Thermal trip: the driver rejects the submit ioctl. Not
		// retryable — the accelerator is not coming back this run.
		if out.TripFirst {
			c.Tracer.Instant("thermal-trip", "faults", telemetry.TrackDSP, k.parent, t0)
			c.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", faults.SiteThermalTrip.String()))
		}
		cost := 2 * c.params.KernelCrossing
		c.eng.After(cost, func() {
			c.failCall(Breakdown{
				Setup:    k.setupShare,
				Retry:    retryAccum + cost,
				Attempts: attempt,
				Faults:   attempt - 1,
				Err:      &faults.Error{Site: faults.SiteThermalTrip, Attempts: attempt, Target: label},
			}, k)
		})
		return
	case faults.RPCTransportError, faults.RPCTimeout:
		var cost time.Duration
		var site faults.Site
		if out.Kind == faults.RPCTransportError {
			// The submit path completes, then the driver signals the
			// failure back with one more kernel crossing.
			cost = k.outbound + c.params.KernelCrossing
			site = faults.SiteRPCTransport
		} else {
			// The call is lost; the caller waits out its deadline.
			cost = c.Faults.Deadline()
			site = faults.SiteRPCTimeout
		}
		c.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", site.String()))
		if attempt < c.Faults.MaxAttempts() {
			backoff := c.Faults.BackoffFor(attempt)
			c.eng.After(cost+backoff, func() {
				c.Tracer.Emit("rpc-retry", "faults", telemetry.TrackCPU, k.parent, t0, c.eng.Now())
				c.Metrics.Inc("aitax_faults_retries_total")
				c.Metrics.Observe("aitax_faults_retry_ms", float64(cost+backoff)/float64(time.Millisecond))
				k.attempt, k.retryAccum = attempt+1, retryAccum+cost+backoff
				k.invokeAttempt()
			})
		} else {
			c.eng.After(cost, func() {
				c.failCall(Breakdown{
					Setup:    k.setupShare,
					Retry:    retryAccum + cost,
					Attempts: attempt,
					Faults:   attempt,
					Err:      &faults.Error{Site: site, Attempts: attempt, Target: label},
				}, k)
			})
		}
		return
	}

	// Fault-free attempt (possibly stretched by a driver stall).
	k.stall = out.Stall
	k.hold = k.execTime + out.Stall
	c.eng.After(k.outbound, k.sentFn)
}

// sent runs when the submit has reached the DSP queue.
func (k *call) sent() {
	c := k.c
	k.enqueued = c.eng.Now()
	k.down = c.Tracer.Emit("rpc-down", "fastrpc", telemetry.TrackCPU, k.parent, k.t0, k.enqueued)
	c.dsp.Acquire(k.hold, k.ranFn)
}

// ran runs when the DSP has executed the call.
func (k *call) ran(start, end sim.Time) {
	c := k.c
	k.queue = start.Sub(k.enqueued)
	k.end = end
	k.exec = c.Tracer.Emit(k.label, "fastrpc", telemetry.TrackDSP, k.parent, start, end)
	c.Tracer.Link("fastrpc", k.down, k.exec)
	if k.stall > 0 {
		c.Tracer.Emit("driver-stall", "faults", telemetry.TrackDSP, k.exec, end.Add(-k.stall), end)
		c.Metrics.Inc(telemetry.Labeled("aitax_faults_injected_total", "site", faults.SiteDriverStall.String()))
		c.Metrics.Observe("aitax_faults_stall_ms", float64(k.stall)/float64(time.Millisecond))
	}
	c.eng.After(k.inbound, k.returnedFn)
}

// returned runs when the completion is back in the caller.
func (k *call) returned() {
	c := k.c
	up := c.Tracer.Emit("rpc-up", "fastrpc", telemetry.TrackCPU, k.parent, k.end, c.eng.Now())
	c.Tracer.Link("fastrpc", k.exec, up)
	c.calls++
	c.retryTotal += k.retryAccum
	c.Metrics.Inc("aitax_fastrpc_calls_total")
	c.Metrics.Observe("aitax_fastrpc_transport_ms", float64(k.outbound+k.inbound)/float64(time.Millisecond))
	c.Metrics.Observe("aitax_fastrpc_queue_ms", float64(k.queue)/float64(time.Millisecond))
	c.Metrics.Observe("aitax_fastrpc_exec_ms", float64(k.execTime)/float64(time.Millisecond))
	c.Metrics.Observe("aitax_fastrpc_cache_flush_ms", float64(k.flush)/float64(time.Millisecond))
	stallFault := 0
	if k.stall > 0 {
		stallFault = 1
	}
	k.finish(Breakdown{
		Setup:     k.setupShare,
		Transport: k.outbound + k.inbound,
		Queue:     k.queue,
		Exec:      k.hold,
		Retry:     k.retryAccum,
		Attempts:  k.attempt,
		Faults:    k.attempt - 1 + stallFault,
	})
}

// failCall finishes call k, which gave up, recording the failure before
// handing the breakdown to the caller.
func (c *Channel) failCall(b Breakdown, k *call) {
	c.failedCalls++
	c.retryTotal += b.Retry
	c.Tracer.Instant("rpc-failed", "faults", telemetry.TrackCPU, k.parent, c.eng.Now())
	c.Metrics.Inc("aitax_faults_failed_calls_total")
	k.finish(b)
}

// CallStages itemizes the Fig. 7 flow for a payload of the given size on
// a warm channel, in order.
func (c *Channel) CallStages(payloadBytes int64) []Stage {
	kb := (payloadBytes + 1023) / 1024
	return []Stage{
		{"user->kernel (submit ioctl)", c.params.KernelCrossing},
		{"kernel driver -> DSP signal", c.params.KernelCrossing},
		{"cache flush (shared buffer)", time.Duration(kb) * c.params.CacheFlushPerKB},
		{"DSP wakeup/dispatch", c.params.DSPWakeup},
		{"DSP -> kernel completion", c.params.KernelCrossing},
		{"kernel -> user return", c.params.KernelCrossing},
	}
}

// SetupCost returns the one-time session-establishment cost.
func (c *Channel) SetupCost() time.Duration { return c.params.SessionSetup }
