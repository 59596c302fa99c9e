package fastrpc

import (
	"errors"
	"testing"
	"time"

	"aitax/internal/faults"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
)

func newFaultyChannel(t *testing.T, plan faults.Plan) (*sim.Engine, *Channel) {
	t.Helper()
	eng, c := newChannel()
	inj, err := faults.New(plan.Resolved(1))
	if err != nil {
		t.Fatalf("faults.New: %v", err)
	}
	c.Faults = inj
	return eng, c
}

// attemptCosts returns the per-attempt failure costs for a payload on
// this channel: transport-error cost and the outbound leg, computed the
// same way the channel computes them.
func attemptCosts(c *Channel, payloadBytes int64) (transportFail, outbound time.Duration) {
	kb := (payloadBytes + 1023) / 1024
	flush := time.Duration(kb) * c.params.CacheFlushPerKB
	outbound = 2*c.params.KernelCrossing + flush + c.params.DSPWakeup
	return outbound + c.params.KernelCrossing, outbound
}

// Satellite: table test proving retried calls add exactly the expected
// virtual-time backoff to Breakdown.Total(). Every attempt fails
// deterministically (rate 1), so the expected retry time is a closed
// form: attempts × per-attempt cost + the geometric backoff series.
func TestRetryBackoffExactAccounting(t *testing.T) {
	const payload = 64 * 1024
	cases := []struct {
		name     string
		plan     faults.Plan
		wantSite faults.Site
		// perAttempt returns the cost of one failed attempt.
		perAttempt func(c *Channel) time.Duration
	}{
		{
			name:     "transport error, no retry",
			plan:     faults.Plan{RPCErrorRate: 1, MaxAttempts: 1, Backoff: 2 * time.Millisecond, BackoffFactor: 2},
			wantSite: faults.SiteRPCTransport,
			perAttempt: func(c *Channel) time.Duration {
				cost, _ := attemptCosts(c, payload)
				return cost
			},
		},
		{
			name:     "transport error, three attempts",
			plan:     faults.Plan{RPCErrorRate: 1, MaxAttempts: 3, Backoff: 2 * time.Millisecond, BackoffFactor: 2},
			wantSite: faults.SiteRPCTransport,
			perAttempt: func(c *Channel) time.Duration {
				cost, _ := attemptCosts(c, payload)
				return cost
			},
		},
		{
			name:     "timeout burns the deadline, four attempts",
			plan:     faults.Plan{RPCTimeoutRate: 1, Deadline: 40 * time.Millisecond, MaxAttempts: 4, Backoff: 3 * time.Millisecond, BackoffFactor: 1.5},
			wantSite: faults.SiteRPCTimeout,
			perAttempt: func(c *Channel) time.Duration {
				return 40 * time.Millisecond
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, c := newFaultyChannel(t, tc.plan)
			var b Breakdown
			done := false
			c.Invoke(payload, 5*time.Millisecond, func(bd Breakdown) { b = bd; done = true })
			eng.Run()
			if !done {
				t.Fatal("onDone never ran")
			}
			if b.Err == nil {
				t.Fatal("rate-1 fault plan must fail the call")
			}
			var fe *faults.Error
			if !errors.As(b.Err, &fe) || fe.Site != tc.wantSite {
				t.Fatalf("Err = %v, want site %v", b.Err, tc.wantSite)
			}
			k := tc.plan.MaxAttempts
			if b.Attempts != k {
				t.Fatalf("attempts = %d, want %d", b.Attempts, k)
			}
			wantRetry := time.Duration(k) * tc.perAttempt(c)
			for i := 1; i < k; i++ {
				wantRetry += c.Faults.BackoffFor(i)
			}
			if b.Retry != wantRetry {
				t.Fatalf("Retry = %v, want exactly %v", b.Retry, wantRetry)
			}
			if b.Setup != c.SetupCost() {
				t.Fatalf("Setup = %v, want %v", b.Setup, c.SetupCost())
			}
			if b.Total() != b.Setup+wantRetry {
				t.Fatalf("Total = %v, want setup+retry = %v", b.Total(), b.Setup+wantRetry)
			}
			if b.Transport != 0 || b.Exec != 0 || b.Queue != 0 {
				t.Fatalf("failed call leaked success time: %+v", b)
			}
			if c.FailedCalls() != 1 || c.RetryTotal() != wantRetry {
				t.Fatalf("channel accounting: failed=%d retry=%v", c.FailedCalls(), c.RetryTotal())
			}
		})
	}
}

// A mirror injector with the same plan predicts the channel's fault
// draws exactly, so a mixed success/failure run can be checked against
// a closed-form expectation too.
func TestRetryThenSuccessMatchesMirrorPrediction(t *testing.T) {
	const payload = 32 * 1024
	plan := faults.Plan{RPCErrorRate: 0.6, MaxAttempts: 8, Backoff: 2 * time.Millisecond, BackoffFactor: 2}
	// Pick a seed whose draw sequence fails at least once and then
	// succeeds within the attempt budget.
	for s := uint64(1); s < 2000; s++ {
		p := plan
		p.Seed = s
		probe, _ := faults.New(p)
		probe.SessionSetup() // the cold channel draws setup first
		first := probe.RPCAttempt(0).Kind
		second := probe.RPCAttempt(0).Kind
		if first != faults.RPCNone && second == faults.RPCNone {
			plan.Seed = s
			break
		}
	}
	if plan.Seed == 0 {
		t.Fatal("no suitable seed found")
	}
	eng, c := newFaultyChannel(t, plan)

	mirror, err := faults.New(plan.Resolved(1))
	if err != nil {
		t.Fatal(err)
	}
	if mirror.SessionSetup() != nil { // mimic the channel's setup draw
		t.Fatal("mirror setup draw failed unexpectedly")
	}
	failCost, _ := attemptCosts(c, payload)
	var wantRetry time.Duration
	wantAttempts := 0
	for a := 1; a <= mirror.MaxAttempts(); a++ {
		wantAttempts = a
		if mirror.RPCAttempt(0).Kind == faults.RPCNone {
			break
		}
		wantRetry += failCost + mirror.BackoffFor(a)
	}
	if wantAttempts == 1 || wantAttempts == mirror.MaxAttempts() {
		t.Fatalf("seed gives attempts=%d; pick a seed that fails some then succeeds", wantAttempts)
	}

	var b Breakdown
	c.Invoke(payload, 5*time.Millisecond, func(bd Breakdown) { b = bd })
	eng.Run()
	if b.Err != nil {
		t.Fatalf("call failed: %v", b.Err)
	}
	if b.Attempts != wantAttempts {
		t.Fatalf("attempts = %d, mirror predicts %d", b.Attempts, wantAttempts)
	}
	if b.Retry != wantRetry {
		t.Fatalf("Retry = %v, mirror predicts %v", b.Retry, wantRetry)
	}
	if b.Faults != wantAttempts-1 {
		t.Fatalf("Faults = %d, want %d failed attempts", b.Faults, wantAttempts-1)
	}
	if b.Exec != 5*time.Millisecond {
		t.Fatalf("Exec = %v", b.Exec)
	}
}

// Satellite: a failed session setup must leave the channel cold (not
// Ready), and a later invoke must be able to establish the session.
func TestFailedSetupLeavesChannelReinitializable(t *testing.T) {
	// Find a seed whose first two setup draws fail at rate 0.5 and whose
	// third succeeds: the first call exhausts MaxAttempts=2 and fails,
	// the second call's fresh setup succeeds.
	plan := faults.Plan{SessionFailRate: 0.5, MaxAttempts: 2, Backoff: time.Millisecond, BackoffFactor: 2}
	seed := uint64(0)
	for s := uint64(1); s < 2000; s++ {
		p := plan
		p.Seed = s
		inj, _ := faults.New(p)
		if inj.SessionSetup() != nil && inj.SessionSetup() != nil && inj.SessionSetup() == nil {
			seed = s
			break
		}
	}
	if seed == 0 {
		t.Fatal("no suitable seed found")
	}
	plan.Seed = seed
	eng, c := newFaultyChannel(t, plan)

	var first, second Breakdown
	c.Invoke(1024, time.Millisecond, func(b Breakdown) { first = b })
	eng.Run()
	var fe *faults.Error
	if first.Err == nil || !errors.As(first.Err, &fe) || fe.Site != faults.SiteSessionSetup {
		t.Fatalf("first call: err = %v, want session-setup failure", first.Err)
	}
	if fe.Attempts != 2 {
		t.Fatalf("setup attempts = %d, want 2", fe.Attempts)
	}
	if c.Ready() {
		t.Fatal("failed setup left the channel Ready — must return to cold")
	}
	if first.Retry == 0 {
		t.Fatal("failed setup wait must be accounted as retry tax")
	}

	c.Invoke(1024, time.Millisecond, func(b Breakdown) { second = b })
	eng.Run()
	if second.Err != nil {
		t.Fatalf("second call after re-setup failed: %v", second.Err)
	}
	if second.Setup == 0 {
		t.Fatal("re-initialized call must pay setup again")
	}
	if !c.Ready() {
		t.Fatal("channel must be warm after successful re-setup")
	}
	if c.Calls() != 1 || c.FailedCalls() != 1 {
		t.Fatalf("calls=%d failed=%d, want 1/1", c.Calls(), c.FailedCalls())
	}
}

func TestSetupFailureFailsAllWaiters(t *testing.T) {
	eng, c := newFaultyChannel(t, faults.Plan{SessionFailRate: 1, MaxAttempts: 2})
	errs := 0
	for i := 0; i < 3; i++ {
		c.Invoke(1024, time.Millisecond, func(b Breakdown) {
			if b.Err != nil {
				errs++
			}
		})
	}
	eng.Run()
	if errs != 3 {
		t.Fatalf("failed waiters = %d, want 3", errs)
	}
	if c.Ready() {
		t.Fatal("channel Ready after setup failure")
	}
}

func TestThermalTripFailsWithoutRetry(t *testing.T) {
	eng, c := newFaultyChannel(t, faults.Plan{ThermalTripAt: time.Millisecond, MaxAttempts: 5})
	var b Breakdown
	c.Invoke(1024, time.Millisecond, func(bd Breakdown) { b = bd })
	eng.Run()
	var fe *faults.Error
	if b.Err == nil || !errors.As(b.Err, &fe) || fe.Site != faults.SiteThermalTrip {
		t.Fatalf("err = %v, want thermal trip", b.Err)
	}
	if b.Attempts != 1 {
		t.Fatalf("attempts = %d — thermal trip must not be retried", b.Attempts)
	}
	if n := c.Faults.Injected(faults.SiteThermalTrip); n != 1 {
		t.Fatalf("trip recorded %d times, want once", n)
	}
}

func TestDriverStallStretchesExec(t *testing.T) {
	stall := 7 * time.Millisecond
	eng, c := newFaultyChannel(t, faults.Plan{StallRate: 1, StallDuration: stall})
	var b Breakdown
	c.Invoke(1024, 5*time.Millisecond, func(bd Breakdown) { b = bd })
	eng.Run()
	if b.Err != nil {
		t.Fatalf("stalled call must still succeed: %v", b.Err)
	}
	if b.Exec != 5*time.Millisecond+stall {
		t.Fatalf("Exec = %v, want exec+stall %v", b.Exec, 5*time.Millisecond+stall)
	}
	if b.Faults != 1 {
		t.Fatalf("Faults = %d, want 1 (the stall)", b.Faults)
	}
}

func TestFaultTelemetry(t *testing.T) {
	eng, c := newFaultyChannel(t, faults.Plan{RPCErrorRate: 1, MaxAttempts: 3, Backoff: 2 * time.Millisecond, BackoffFactor: 2})
	c.Tracer = telemetry.NewTracer(eng.Now)
	c.Metrics = telemetry.NewRegistry()
	c.Invoke(1024, time.Millisecond, nil)
	eng.Run()

	retries, failed := 0, 0
	for _, s := range c.Tracer.Spans() {
		switch s.Name {
		case "rpc-retry":
			retries++
			if s.Component != "faults" || s.Duration() == 0 {
				t.Fatalf("rpc-retry span = %+v", s)
			}
		case "rpc-failed":
			failed++
			if s.Attr("instant") != "1" {
				t.Fatalf("rpc-failed must be an instant marker: %+v", s)
			}
		}
	}
	if retries != 2 || failed != 1 {
		t.Fatalf("retry spans = %d, failed markers = %d, want 2/1", retries, failed)
	}
	if got := c.Metrics.Counter("aitax_faults_retries_total"); got != 2 {
		t.Fatalf("retries counter = %v", got)
	}
	if got := c.Metrics.Counter("aitax_faults_failed_calls_total"); got != 1 {
		t.Fatalf("failed-calls counter = %v", got)
	}
	if got := c.Metrics.Counter(telemetry.Labeled("aitax_faults_injected_total", "site", "rpc-transport")); got != 3 {
		t.Fatalf("injected counter = %v, want 3 attempts", got)
	}
}

// With no injector attached the new fields stay zero and behaviour is
// byte-identical to the infallible transport.
func TestNoInjectorBreakdownUnchanged(t *testing.T) {
	eng, c := newChannel()
	var b Breakdown
	c.Invoke(1024, time.Millisecond, func(bd Breakdown) { b = bd })
	eng.Run()
	if b.Err != nil || b.Retry != 0 || b.Faults != 0 {
		t.Fatalf("fault fields set without injector: %+v", b)
	}
	if b.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", b.Attempts)
	}
}

// Same plan and seed must produce the same fault sites and accounting.
func TestFaultRunsDeterministic(t *testing.T) {
	run := func() (sim.Time, []Breakdown) {
		eng := sim.NewEngine()
		dsp := sim.NewResource(eng, 1)
		c := NewChannel(eng, soc.Pixel3().RPC, dsp)
		inj, _ := faults.New(faults.Plan{Seed: 5, RPCErrorRate: 0.4, StallRate: 0.3, MaxAttempts: 3}.Resolved(1))
		c.Faults = inj
		var bds []Breakdown
		var next func(i int)
		next = func(i int) {
			if i >= 10 {
				return
			}
			c.Invoke(4096, 2*time.Millisecond, func(b Breakdown) {
				bds = append(bds, Breakdown{Setup: b.Setup, Transport: b.Transport, Queue: b.Queue,
					Exec: b.Exec, Retry: b.Retry, Attempts: b.Attempts, Faults: b.Faults})
				next(i + 1)
			})
		}
		next(0)
		eng.Run()
		return eng.Now(), bds
	}
	end1, b1 := run()
	end2, b2 := run()
	if end1 != end2 || len(b1) != len(b2) {
		t.Fatalf("runs diverged: %v/%d vs %v/%d", end1, len(b1), end2, len(b2))
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Fatalf("call %d diverged: %+v vs %+v", i, b1[i], b2[i])
		}
	}
}
