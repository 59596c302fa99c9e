// Package faults is the deterministic fault-injection subsystem for the
// offload path. The paper attributes much of the AI tax to the fragility
// of that path — FastRPC round-trips, delegate and driver bring-up,
// multi-tenancy contention — and real mobile stacks survive it by
// retrying and by falling back to CPU execution. This package supplies
// the failure side of that story on the simulated platform: a seeded
// Plan describes *what* can fail and how often, and an Injector draws
// every fault decision from its own virtual-time RNG stream (never wall
// clock, never the run's main RNG), so a fixed (seed, plan) pair
// regenerates byte-identical fault sites, retries and fallbacks at any
// host parallelism.
//
// Everything is nil-safe and zero-value-safe: a nil *Injector injects
// nothing at zero cost, and the zero Plan is "no faults", so the layers
// that consult the injector (fastrpc, driver, tflite, nnapi, app) can do
// so unconditionally without perturbing fault-free runs.
package faults

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"aitax/internal/sim"
)

// Site identifies one injection point in the offload stack — the layers
// the paper's §III/§IV analysis names as variability sources.
type Site int

// Injection sites.
const (
	// SiteRPCTransport is a FastRPC invoke failing in transport (kernel
	// crossing or driver signalling error).
	SiteRPCTransport Site = iota
	// SiteRPCTimeout is a FastRPC invoke hanging until its deadline.
	SiteRPCTimeout
	// SiteSessionSetup is a FastRPC session establishment failing.
	SiteSessionSetup
	// SiteDelegateInit is a delegate/driver refusing to initialize
	// (shader compile failure, DSP graph rejection).
	SiteDelegateInit
	// SiteDriverStall is a driver stall extending accelerator occupancy
	// — the run-to-run variability tail of §III.
	SiteDriverStall
	// SiteThermalTrip is a thermal-forced accelerator shutdown; calls
	// after the trip fail without retry.
	SiteThermalTrip
)

// String names the site the way metrics and spans label it.
func (s Site) String() string {
	switch s {
	case SiteRPCTransport:
		return "rpc-transport"
	case SiteRPCTimeout:
		return "rpc-timeout"
	case SiteSessionSetup:
		return "session-setup"
	case SiteDelegateInit:
		return "delegate-init"
	case SiteDriverStall:
		return "driver-stall"
	case SiteThermalTrip:
		return "thermal-trip"
	default:
		return fmt.Sprintf("site(%d)", int(s))
	}
}

// Error is a terminal injected failure, reported after any retries were
// exhausted. Retryable is false for failures no retry can cure (thermal
// trip, delegate init).
type Error struct {
	Site     Site
	Attempts int
	Target   string
}

// Error implements error.
func (e *Error) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("faults: %s on %q failed after %d attempts", e.Site, e.Target, e.Attempts)
	}
	return fmt.Sprintf("faults: %s on %q", e.Site, e.Target)
}

// Plan describes what the injector may break. The zero value injects
// nothing — FaultPlan-free runs stay byte-identical to builds without
// this package. All probabilities are per-attempt in [0, 1].
type Plan struct {
	// Seed keys the dedicated fault RNG stream. Zero derives the stream
	// from the run seed, so sweeping run seeds also sweeps fault sites;
	// a non-zero Seed pins fault decisions across run seeds.
	Seed uint64

	// RPCErrorRate is the probability one FastRPC invoke attempt fails
	// in transport (detected one kernel crossing after submission).
	RPCErrorRate float64
	// RPCTimeoutRate is the probability one FastRPC invoke attempt hangs
	// until Deadline before the caller gives up on it.
	RPCTimeoutRate float64
	// Deadline is the per-call FastRPC timeout (default 50ms when any
	// timeout rate is set). Timed-out attempts burn exactly this much
	// virtual time.
	Deadline time.Duration
	// SessionFailRate is the probability one FastRPC session-setup
	// attempt fails. Failed setups leave the channel cold (re-initializable).
	SessionFailRate float64
	// DelegateInitFailRate is the probability delegate/driver
	// initialization fails, forcing the framework's CPU fallback.
	DelegateInitFailRate float64
	// StallRate is the probability a successful DSP invoke is stretched
	// by a driver stall of StallDuration (default 25ms), holding the
	// accelerator for the extra time.
	StallRate float64
	// StallDuration is the injected stall length.
	StallDuration time.Duration
	// ThermalTripAt, when positive, shuts the accelerator down once
	// virtual time reaches it; later offload attempts fail without retry.
	ThermalTripAt time.Duration

	// MaxAttempts bounds FastRPC attempts per call, setup included
	// (default 3). 1 disables retry.
	MaxAttempts int
	// Backoff is the wait before the first retry (default 2ms); each
	// further retry multiplies it by BackoffFactor (default 2). Backoff
	// waits consume virtual time and surface as AI tax.
	Backoff       time.Duration
	BackoffFactor float64
}

// Enabled reports whether the plan can inject anything.
func (p Plan) Enabled() bool {
	return p.RPCErrorRate > 0 || p.RPCTimeoutRate > 0 || p.SessionFailRate > 0 ||
		p.DelegateInitFailRate > 0 || p.StallRate > 0 || p.ThermalTripAt > 0
}

// Validate rejects out-of-range plan fields.
func (p Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"RPCErrorRate", p.RPCErrorRate},
		{"RPCTimeoutRate", p.RPCTimeoutRate},
		{"SessionFailRate", p.SessionFailRate},
		{"DelegateInitFailRate", p.DelegateInitFailRate},
		{"StallRate", p.StallRate},
	} {
		if !(r.v >= 0 && r.v <= 1) { // also rejects NaN
			return fmt.Errorf("faults: %s %v outside [0, 1]", r.name, r.v)
		}
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"Deadline", p.Deadline},
		{"StallDuration", p.StallDuration},
		{"ThermalTripAt", p.ThermalTripAt},
		{"Backoff", p.Backoff},
	} {
		if d.v < 0 {
			return fmt.Errorf("faults: negative %s %v", d.name, d.v)
		}
	}
	if p.MaxAttempts < 0 {
		return fmt.Errorf("faults: negative MaxAttempts %d", p.MaxAttempts)
	}
	if f := p.BackoffFactor; f != 0 && !(f >= 1 && f <= math.MaxFloat64) {
		return fmt.Errorf("faults: BackoffFactor %v not a finite value >= 1", f)
	}
	return nil
}

// seedMix decorrelates the derived fault stream from the run's main RNG
// (which NewRNG seeds with the run seed directly).
const seedMix = 0xFA117A6C0FFEE

// Resolved returns a copy with every unset knob filled with its
// documented default and the RNG seed derived from runSeed when the
// plan does not pin one.
func (p Plan) Resolved(runSeed uint64) Plan {
	if p.Seed == 0 {
		p.Seed = runSeed ^ seedMix
	}
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 3
	}
	if p.Backoff == 0 {
		p.Backoff = 2 * time.Millisecond
	}
	if p.BackoffFactor == 0 {
		p.BackoffFactor = 2
	}
	if p.Deadline == 0 {
		p.Deadline = 50 * time.Millisecond
	}
	if p.StallDuration == 0 {
		p.StallDuration = 25 * time.Millisecond
	}
	return p
}

// RPCFaultKind classifies one FastRPC attempt's outcome.
type RPCFaultKind int

// Attempt outcomes.
const (
	// RPCNone: the attempt proceeds (possibly with a Stall).
	RPCNone RPCFaultKind = iota
	// RPCTransportError: the attempt fails in transport; retryable.
	RPCTransportError
	// RPCTimeout: the attempt hangs until the deadline; retryable.
	RPCTimeout
	// RPCAccelDown: the accelerator is thermally tripped; not retryable.
	RPCAccelDown
)

// RPCOutcome is one attempt's draw.
type RPCOutcome struct {
	Kind RPCFaultKind
	// Stall is extra accelerator hold time on a successful attempt.
	Stall time.Duration
	// TripFirst is set on the first attempt to observe the thermal trip,
	// so the caller can record the shutdown event exactly once.
	TripFirst bool
}

// Injector draws fault decisions for one simulated process. Construct
// with New; a nil *Injector is the "no faults" injector — every method
// is a no-op returning the fault-free outcome. Not safe for concurrent
// use, like the simulation engine it serves.
type Injector struct {
	plan     Plan
	rng      *sim.RNG
	tripped  bool
	injected map[Site]int
}

// New builds an injector for a resolved plan. Callers normally write
// faults.New(plan.Resolved(runSeed)). A plan that injects nothing
// yields a nil injector, keeping fault-free runs on the nil fast path.
func New(plan Plan) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if !plan.Enabled() {
		return nil, nil
	}
	plan = plan.Resolved(plan.Seed)
	return &Injector{
		plan:     plan,
		rng:      sim.NewRNG(plan.Seed),
		injected: make(map[Site]int),
	}, nil
}

// Plan returns the resolved plan (zero Plan on nil).
func (i *Injector) Plan() Plan {
	if i == nil {
		return Plan{}
	}
	return i.plan
}

// Enabled reports whether this injector can inject (false on nil).
func (i *Injector) Enabled() bool { return i != nil }

// MaxAttempts returns the per-call FastRPC attempt bound (1 on nil: a
// fault-free stack never retries).
func (i *Injector) MaxAttempts() int {
	if i == nil {
		return 1
	}
	return i.plan.MaxAttempts
}

// BackoffFor returns the wait before retrying after the given 1-based
// failed attempt: Backoff * BackoffFactor^(attempt-1).
func (i *Injector) BackoffFor(attempt int) time.Duration {
	if i == nil {
		return 0
	}
	d := float64(i.plan.Backoff)
	for a := 1; a < attempt; a++ {
		d *= i.plan.BackoffFactor
	}
	return time.Duration(d)
}

// Deadline returns the per-call FastRPC timeout.
func (i *Injector) Deadline() time.Duration {
	if i == nil {
		return 0
	}
	return i.plan.Deadline
}

// note counts an injected fault.
func (i *Injector) note(s Site) {
	i.injected[s]++
}

// Injected returns how many faults the injector has placed at a site
// (0 on nil).
func (i *Injector) Injected(s Site) int {
	if i == nil {
		return 0
	}
	return i.injected[s]
}

// InjectedTotal sums injected faults across all sites.
func (i *Injector) InjectedTotal() int {
	if i == nil {
		return 0
	}
	n := 0
	for _, c := range i.injected {
		n += c
	}
	return n
}

// AccelDown reports whether the accelerator is thermally tripped at the
// given virtual time, and whether this call is the first to observe the
// trip (so the caller can record the event exactly once).
func (i *Injector) AccelDown(now sim.Time) (down, first bool) {
	if i == nil || i.plan.ThermalTripAt <= 0 {
		return false, false
	}
	if now.Duration() < i.plan.ThermalTripAt {
		return false, false
	}
	if !i.tripped {
		i.tripped = true
		i.note(SiteThermalTrip)
		return true, true
	}
	return true, false
}

// RPCAttempt draws the outcome of one FastRPC invoke attempt. It always
// consumes exactly three uniform draws, so outcome sequences stay
// aligned across plans with the same seed regardless of which rates are
// active — a mirror injector with the same plan predicts a channel's
// draws exactly.
func (i *Injector) RPCAttempt(now sim.Time) RPCOutcome {
	if i == nil {
		return RPCOutcome{}
	}
	if down, first := i.AccelDown(now); down {
		return RPCOutcome{Kind: RPCAccelDown, TripFirst: first}
	}
	errDraw := i.rng.Float64()
	timeoutDraw := i.rng.Float64()
	stallDraw := i.rng.Float64()
	switch {
	case errDraw < i.plan.RPCErrorRate:
		i.note(SiteRPCTransport)
		return RPCOutcome{Kind: RPCTransportError}
	case timeoutDraw < i.plan.RPCTimeoutRate:
		i.note(SiteRPCTimeout)
		return RPCOutcome{Kind: RPCTimeout}
	case stallDraw < i.plan.StallRate:
		i.note(SiteDriverStall)
		return RPCOutcome{Stall: i.plan.StallDuration}
	default:
		return RPCOutcome{}
	}
}

// SessionSetup draws whether one FastRPC session-setup attempt fails.
func (i *Injector) SessionSetup() error {
	if i == nil {
		return nil
	}
	if i.rng.Float64() < i.plan.SessionFailRate {
		i.note(SiteSessionSetup)
		return &Error{Site: SiteSessionSetup, Attempts: 1, Target: "fastrpc"}
	}
	return nil
}

// DelegateInit draws whether the named delegate's one-time
// initialization fails. Delegate-init failures are not retryable: the
// production frameworks respond by tearing the delegate down and
// planning the graph on the CPU instead.
func (i *Injector) DelegateInit(name string) error {
	if i == nil {
		return nil
	}
	if i.rng.Float64() < i.plan.DelegateInitFailRate {
		i.note(SiteDelegateInit)
		return &Error{Site: SiteDelegateInit, Attempts: 1, Target: name}
	}
	return nil
}

// ParsePlan parses the -faults flag syntax: a comma-separated key=value
// list. An empty spec is the zero (disabled) plan.
//
//	rpc=RATE       FastRPC transport error rate
//	timeout=RATE   FastRPC timeout rate
//	deadline=DUR   per-call timeout (e.g. 50ms)
//	session=RATE   session-setup failure rate
//	init=RATE      delegate-init failure rate
//	stall=RATE     driver-stall rate
//	stalldur=DUR   injected stall length
//	trip=DUR       thermal trip at this virtual time
//	seed=N         fault RNG seed (0 derives from the run seed)
//	attempts=N     FastRPC attempts per call (1 disables retry)
//	backoff=DUR    first retry backoff
//	factor=F       backoff multiplier
func ParsePlan(spec string) (Plan, error) {
	var p Plan
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return p, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faults: %q is not key=value", kv)
		}
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		var err error
		switch k {
		case "rpc":
			p.RPCErrorRate, err = parseRate(v)
		case "timeout":
			p.RPCTimeoutRate, err = parseRate(v)
		case "deadline":
			p.Deadline, err = time.ParseDuration(v)
		case "session":
			p.SessionFailRate, err = parseRate(v)
		case "init":
			p.DelegateInitFailRate, err = parseRate(v)
		case "stall":
			p.StallRate, err = parseRate(v)
		case "stalldur":
			p.StallDuration, err = time.ParseDuration(v)
		case "trip":
			p.ThermalTripAt, err = time.ParseDuration(v)
		case "seed":
			p.Seed, err = strconv.ParseUint(v, 10, 64)
		case "attempts":
			p.MaxAttempts, err = strconv.Atoi(v)
		case "backoff":
			p.Backoff, err = time.ParseDuration(v)
		case "factor":
			p.BackoffFactor, err = strconv.ParseFloat(v, 64)
		default:
			return Plan{}, fmt.Errorf("faults: unknown key %q (rpc, timeout, deadline, session, init, stall, stalldur, trip, seed, attempts, backoff, factor)", k)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("faults: bad value for %q: %v", k, err)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

func parseRate(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if !(f >= 0 && f <= 1) { // also rejects NaN
		return 0, fmt.Errorf("rate %v outside [0, 1]", f)
	}
	return f, nil
}
