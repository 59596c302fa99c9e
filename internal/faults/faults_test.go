package faults

import (
	"errors"
	"testing"
	"time"

	"aitax/internal/sim"
)

func TestZeroPlanDisabled(t *testing.T) {
	var p Plan
	if p.Enabled() {
		t.Fatal("zero plan reports Enabled")
	}
	inj, err := New(p)
	if err != nil {
		t.Fatalf("New(zero plan): %v", err)
	}
	if inj != nil {
		t.Fatal("zero plan yields a non-nil injector")
	}
}

func TestNilInjectorIsNoFault(t *testing.T) {
	var inj *Injector
	if inj.Enabled() {
		t.Error("nil injector reports Enabled")
	}
	if got := inj.MaxAttempts(); got != 1 {
		t.Errorf("nil MaxAttempts = %d, want 1", got)
	}
	if got := inj.BackoffFor(3); got != 0 {
		t.Errorf("nil BackoffFor = %v, want 0", got)
	}
	if got := inj.Deadline(); got != 0 {
		t.Errorf("nil Deadline = %v, want 0", got)
	}
	if out := inj.RPCAttempt(sim.Time(0)); out != (RPCOutcome{}) {
		t.Errorf("nil RPCAttempt = %+v, want zero outcome", out)
	}
	if err := inj.SessionSetup(); err != nil {
		t.Errorf("nil SessionSetup = %v", err)
	}
	if err := inj.DelegateInit("hexagon"); err != nil {
		t.Errorf("nil DelegateInit = %v", err)
	}
	if down, first := inj.AccelDown(sim.Time(1e12)); down || first {
		t.Error("nil AccelDown reports tripped")
	}
	if n := inj.InjectedTotal(); n != 0 {
		t.Errorf("nil InjectedTotal = %d", n)
	}
	if p := inj.Plan(); p != (Plan{}) {
		t.Errorf("nil Plan = %+v, want zero", p)
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Plan
		ok   bool
	}{
		{"zero", Plan{}, true},
		{"full rates", Plan{RPCErrorRate: 1, RPCTimeoutRate: 1, SessionFailRate: 1, DelegateInitFailRate: 1, StallRate: 1}, true},
		{"rate above one", Plan{RPCErrorRate: 1.1}, false},
		{"negative rate", Plan{StallRate: -0.1}, false},
		{"negative deadline", Plan{Deadline: -time.Millisecond}, false},
		{"negative attempts", Plan{MaxAttempts: -1}, false},
		{"factor below one", Plan{BackoffFactor: 0.5}, false},
		{"factor zero ok", Plan{BackoffFactor: 0}, true},
	}
	for _, c := range cases {
		err := c.p.Validate()
		if c.ok && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestResolvedDefaults(t *testing.T) {
	p := Plan{RPCErrorRate: 0.5}.Resolved(42)
	if p.Seed == 0 || p.Seed == 42 {
		t.Errorf("derived Seed = %d, want mixed non-zero value distinct from run seed", p.Seed)
	}
	if p.MaxAttempts != 3 {
		t.Errorf("MaxAttempts = %d, want 3", p.MaxAttempts)
	}
	if p.Backoff != 2*time.Millisecond {
		t.Errorf("Backoff = %v, want 2ms", p.Backoff)
	}
	if p.BackoffFactor != 2 {
		t.Errorf("BackoffFactor = %v, want 2", p.BackoffFactor)
	}
	if p.Deadline != 50*time.Millisecond {
		t.Errorf("Deadline = %v, want 50ms", p.Deadline)
	}
	if p.StallDuration != 25*time.Millisecond {
		t.Errorf("StallDuration = %v, want 25ms", p.StallDuration)
	}
	pinned := Plan{Seed: 7, MaxAttempts: 1, Backoff: time.Millisecond, BackoffFactor: 3, Deadline: time.Second, StallDuration: time.Millisecond}.Resolved(42)
	if pinned.Seed != 7 || pinned.MaxAttempts != 1 || pinned.Backoff != time.Millisecond ||
		pinned.BackoffFactor != 3 || pinned.Deadline != time.Second || pinned.StallDuration != time.Millisecond {
		t.Errorf("Resolved overwrote pinned fields: %+v", pinned)
	}
}

// Same seed and plan must regenerate the identical decision sequence.
func TestDeterministicSequence(t *testing.T) {
	plan := Plan{Seed: 99, RPCErrorRate: 0.3, RPCTimeoutRate: 0.2, StallRate: 0.3, SessionFailRate: 0.5, DelegateInitFailRate: 0.5}
	draw := func() ([]RPCOutcome, []bool, []bool) {
		inj, err := New(plan)
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		var outs []RPCOutcome
		var setups, inits []bool
		for k := 0; k < 50; k++ {
			outs = append(outs, inj.RPCAttempt(sim.Time(k)))
			setups = append(setups, inj.SessionSetup() != nil)
			inits = append(inits, inj.DelegateInit("gpu") != nil)
		}
		return outs, setups, inits
	}
	o1, s1, i1 := draw()
	o2, s2, i2 := draw()
	for k := range o1 {
		if o1[k] != o2[k] || s1[k] != s2[k] || i1[k] != i2[k] {
			t.Fatalf("draw %d diverged: %+v/%v/%v vs %+v/%v/%v", k, o1[k], s1[k], i1[k], o2[k], s2[k], i2[k])
		}
	}
}

// RPCAttempt burns a fixed number of draws per call, so rate changes
// never shift later decisions sourced from the same seed.
func TestRPCAttemptDrawAlignment(t *testing.T) {
	// With rpc error rate 1, every attempt fails on the first draw; the
	// stall draws afterwards must land exactly where an all-success run
	// with the same seed would place them.
	a, _ := New(Plan{Seed: 5, RPCErrorRate: 1, StallRate: 1})
	b, _ := New(Plan{Seed: 5, StallRate: 1})
	for k := 0; k < 20; k++ {
		oa := a.RPCAttempt(sim.Time(k))
		ob := b.RPCAttempt(sim.Time(k))
		if oa.Kind != RPCTransportError {
			t.Fatalf("attempt %d: kind %v, want transport error", k, oa.Kind)
		}
		if ob.Kind != RPCNone || ob.Stall == 0 {
			t.Fatalf("attempt %d: baseline %+v, want stall", k, ob)
		}
	}
	// After identical draw counts both streams are still in lockstep.
	a2, _ := New(Plan{Seed: 5, SessionFailRate: 0.5})
	b2, _ := New(Plan{Seed: 5, SessionFailRate: 0.5, RPCErrorRate: 1})
	for k := 0; k < 10; k++ {
		b2.RPCAttempt(sim.Time(k))
		a2.RPCAttempt(sim.Time(k))
	}
	for k := 0; k < 10; k++ {
		if (a2.SessionSetup() != nil) != (b2.SessionSetup() != nil) {
			t.Fatalf("setup draw %d diverged after differing rates", k)
		}
	}
}

func TestBackoffGrowth(t *testing.T) {
	inj, _ := New(Plan{RPCErrorRate: 1, Backoff: 2 * time.Millisecond, BackoffFactor: 2, MaxAttempts: 4})
	want := []time.Duration{2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	for k, w := range want {
		if got := inj.BackoffFor(k + 1); got != w {
			t.Errorf("BackoffFor(%d) = %v, want %v", k+1, got, w)
		}
	}
}

func TestThermalTrip(t *testing.T) {
	inj, _ := New(Plan{ThermalTripAt: 10 * time.Millisecond})
	if down, _ := inj.AccelDown(sim.Time(5 * time.Millisecond)); down {
		t.Fatal("tripped before ThermalTripAt")
	}
	down, first := inj.AccelDown(sim.Time(10 * time.Millisecond))
	if !down || !first {
		t.Fatalf("at trip time: down=%v first=%v, want true/true", down, first)
	}
	down, first = inj.AccelDown(sim.Time(11 * time.Millisecond))
	if !down || first {
		t.Fatalf("after trip: down=%v first=%v, want true/false", down, first)
	}
	if out := inj.RPCAttempt(sim.Time(12 * time.Millisecond)); out.Kind != RPCAccelDown {
		t.Fatalf("post-trip RPCAttempt = %+v, want accel-down", out)
	}
	if n := inj.Injected(SiteThermalTrip); n != 1 {
		t.Errorf("thermal trips recorded = %d, want 1", n)
	}
}

func TestInjectedCounters(t *testing.T) {
	inj, _ := New(Plan{Seed: 3, RPCErrorRate: 1, MaxAttempts: 2})
	for k := 0; k < 5; k++ {
		inj.RPCAttempt(sim.Time(k))
	}
	if n := inj.Injected(SiteRPCTransport); n != 5 {
		t.Errorf("transport faults = %d, want 5", n)
	}
	if n := inj.InjectedTotal(); n != 5 {
		t.Errorf("total faults = %d, want 5", n)
	}
}

func TestErrorStringsAndSites(t *testing.T) {
	e := &Error{Site: SiteDelegateInit, Attempts: 1, Target: "hexagon"}
	if got := e.Error(); got != `faults: delegate-init on "hexagon"` {
		t.Errorf("Error() = %q", got)
	}
	e2 := &Error{Site: SiteRPCTransport, Attempts: 3, Target: "fastrpc"}
	if got := e2.Error(); got != `faults: rpc-transport on "fastrpc" failed after 3 attempts` {
		t.Errorf("Error() = %q", got)
	}
	var err error = e
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != SiteDelegateInit {
		t.Error("errors.As failed to recover *Error")
	}
	names := map[Site]string{
		SiteRPCTransport: "rpc-transport", SiteRPCTimeout: "rpc-timeout",
		SiteSessionSetup: "session-setup", SiteDelegateInit: "delegate-init",
		SiteDriverStall: "driver-stall", SiteThermalTrip: "thermal-trip",
	}
	for s, w := range names {
		if s.String() != w {
			t.Errorf("Site %d String = %q, want %q", s, s.String(), w)
		}
	}
}

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("rpc=0.2, timeout=0.1, deadline=40ms, session=0.3, init=1, stall=0.25, stalldur=10ms, trip=2s, seed=7, attempts=5, backoff=3ms, factor=1.5")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	want := Plan{
		Seed: 7, RPCErrorRate: 0.2, RPCTimeoutRate: 0.1, Deadline: 40 * time.Millisecond,
		SessionFailRate: 0.3, DelegateInitFailRate: 1, StallRate: 0.25,
		StallDuration: 10 * time.Millisecond, ThermalTripAt: 2 * time.Second,
		MaxAttempts: 5, Backoff: 3 * time.Millisecond, BackoffFactor: 1.5,
	}
	if p != want {
		t.Errorf("ParsePlan = %+v, want %+v", p, want)
	}

	if p, err := ParsePlan(""); err != nil || p.Enabled() {
		t.Errorf("empty spec: plan %+v err %v, want disabled/nil", p, err)
	}
	for _, bad := range []string{
		"rpc", "rpc=2", "bogus=1", "deadline=xyz", "rpc=0.2;stall=0.1",
		// Non-finite values: a NaN rate would silently disable injection.
		"rpc=NaN", "timeout=NaN", "session=nan", "init=-NaN", "stall=Inf",
		"factor=NaN", "factor=Inf", "factor=+Inf", "factor=-Inf", "factor=0.5",
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// FuzzParsePlan pins the parser's contract: any spec either fails to
// parse or yields a plan that Validate accepts.
func FuzzParsePlan(f *testing.F) {
	for _, seed := range []string{
		"", "rpc=0.2, timeout=0.1, deadline=40ms", "rpc=NaN", "factor=Inf",
		"stall=1,stalldur=10ms,trip=2s,seed=7,attempts=5,backoff=3ms,factor=1.5",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePlan(spec)
		if err != nil {
			return
		}
		if verr := p.Validate(); verr != nil {
			t.Fatalf("ParsePlan(%q) = %+v, which Validate rejects: %v", spec, p, verr)
		}
	})
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Plan{RPCErrorRate: 2}); err == nil {
		t.Fatal("New accepted out-of-range rate")
	}
}
