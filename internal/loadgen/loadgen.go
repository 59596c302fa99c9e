// Package loadgen generates deterministic open-loop request traffic for
// the serving frontend. An open-loop generator draws arrival times from
// the workload specification alone — arrivals never wait for the server,
// so queueing delay shows up as latency instead of silently throttling
// the offered rate (the coordinated-omission trap closed-loop generators
// fall into).
//
// Arrivals are a piecewise-constant-rate Poisson process: each ramp
// phase holds a constant QPS, and interarrival gaps are exponential
// draws from one seeded RNG. Because the exponential is memoryless,
// restarting the draw at each phase boundary with the new rate simulates
// the non-homogeneous process exactly. The whole schedule is a pure
// function of the Spec, so a fixed seed regenerates byte-identical
// traffic on any machine at any worker count.
package loadgen

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"aitax/internal/qos"
	"aitax/internal/sim"
)

// ErrBadSpec tags every load-spec validation or parse error, so the
// edges (flag parsing, HTTP handlers) can recognize bad input with
// errors.Is instead of matching message text.
var ErrBadSpec = errors.New("loadgen: bad spec")

// maxQPS is the highest rate a phase may offer: its mean gap is the
// clock's 1 ns resolution.
const maxQPS = 1e9

// Phase is one constant-rate segment of the QPS ramp.
type Phase struct {
	// QPS is the offered arrival rate in requests per second.
	QPS float64
	// Duration is how long the phase holds that rate.
	Duration time.Duration
}

// Share weights one model in the request mix. Requests pick their model
// independently per arrival, proportional to Weight. Class is the QoS
// class every request for this share carries (empty = standard).
type Share struct {
	Model  string
	Weight int
	Class  string
}

// Arrival is one generated request: when it reaches the server (virtual
// time from load start) and which model it asks for.
type Arrival struct {
	// ID numbers arrivals in time order, from 0.
	ID int
	// At is the arrival offset from the start of the load.
	At time.Duration
	// Model is the requested model's Table-I name.
	Model string
	// Class is the request's QoS class, copied from its mix share
	// (empty = standard; see qos.ParseClass).
	Class string
}

// Spec describes an open-loop load: the seed, the QPS ramp and the
// model mix. Generate turns it into a concrete arrival schedule.
type Spec struct {
	Seed   uint64
	Phases []Phase
	Mix    []Share
}

// Validate reports the first problem with the spec. All errors wrap
// ErrBadSpec. NaN and infinite rates are rejected explicitly: NaN
// compares false against every range check and would otherwise produce
// a silently degenerate (empty or endless) schedule. So are rates above
// maxQPS, and ramps too long for a time.Duration.
func (s Spec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("%w: needs at least one ramp phase", ErrBadSpec)
	}
	var total time.Duration
	for i, p := range s.Phases {
		if !(p.QPS > 0) || math.IsInf(p.QPS, 0) {
			return fmt.Errorf("%w: phase %d: qps must be a positive finite number, got %g", ErrBadSpec, i, p.QPS)
		}
		if p.QPS > maxQPS {
			return fmt.Errorf("%w: phase %d: qps must be at most %g, got %g", ErrBadSpec, i, maxQPS, p.QPS)
		}
		if p.Duration <= 0 {
			return fmt.Errorf("%w: phase %d: duration must be positive, got %v", ErrBadSpec, i, p.Duration)
		}
		if p.Duration > math.MaxInt64-total {
			return fmt.Errorf("%w: phase %d: ramp longer than %v", ErrBadSpec, i, time.Duration(math.MaxInt64))
		}
		total += p.Duration
	}
	if len(s.Mix) == 0 {
		return fmt.Errorf("%w: needs at least one model in the mix", ErrBadSpec)
	}
	weights := 0 // Generate draws a model from [0, weights)
	for i, m := range s.Mix {
		if m.Model == "" {
			return fmt.Errorf("%w: mix entry %d has no model name", ErrBadSpec, i)
		}
		if m.Weight <= 0 {
			return fmt.Errorf("%w: mix entry %d (%s): weight must be positive, got %d", ErrBadSpec, i, m.Model, m.Weight)
		}
		if m.Weight > math.MaxInt-weights {
			return fmt.Errorf("%w: mix entry %d (%s): weights sum past %d", ErrBadSpec, i, m.Model, math.MaxInt)
		}
		weights += m.Weight
		if _, err := qos.ParseClass(m.Class); err != nil {
			return fmt.Errorf("%w: mix entry %d (%s): %v", ErrBadSpec, i, m.Model, err)
		}
	}
	return nil
}

// Duration returns the total length of the ramp.
func (s Spec) Duration() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// Generate produces the arrival schedule: strictly ordered in time, IDs
// dense from 0. Each arrival draws its gap, then its model, from the
// same RNG, so the whole schedule is one deterministic sequence.
func (s Spec) Generate() ([]Arrival, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	total := 0
	for _, m := range s.Mix {
		total += m.Weight
	}
	rng := sim.NewRNG(s.Seed)
	var out []Arrival
	var phaseStart time.Duration
	for _, p := range s.Phases {
		end := phaseStart + p.Duration
		mean := float64(time.Second) / p.QPS // mean gap in ns
		// Memorylessness: a fresh draw at the phase boundary is exactly
		// the residual wait under the new rate. Each gap is compared with
		// the time left as a float before it is converted: at a tiny rate
		// a draw can exceed the range of a time.Duration (or be +Inf).
		t := phaseStart
		for gap := rng.Exp(mean); gap < float64(end-t); gap = rng.Exp(mean) {
			t += time.Duration(gap)
			pick := rng.Intn(total)
			model, class := "", ""
			for _, m := range s.Mix {
				if pick < m.Weight {
					model, class = m.Model, m.Class
					break
				}
				pick -= m.Weight
			}
			out = append(out, Arrival{ID: len(out), At: t, Model: model, Class: class})
		}
		phaseStart = end
	}
	return out, nil
}

// ParseRamp parses a ramp spec of the form "QPSxDURATION[,...]", e.g.
// "50x2s,200x2s,50x1s": 2 s at 50 QPS, then 2 s at 200, then 1 s back
// at 50. QPS may be fractional, up to 1e9 (a 1 ns mean gap); durations
// use Go syntax.
func ParseRamp(s string) ([]Phase, error) {
	var phases []Phase
	var total time.Duration
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		qpsStr, durStr, ok := strings.Cut(part, "x")
		if !ok {
			return nil, fmt.Errorf("%w: ramp phase %q: want QPSxDURATION, e.g. 50x2s", ErrBadSpec, part)
		}
		qps, err := strconv.ParseFloat(qpsStr, 64)
		if err != nil {
			return nil, fmt.Errorf("%w: ramp phase %q: bad qps %q", ErrBadSpec, part, qpsStr)
		}
		if !(qps > 0) || math.IsInf(qps, 0) {
			return nil, fmt.Errorf("%w: ramp phase %q: qps must be a positive finite number, got %g", ErrBadSpec, part, qps)
		}
		if qps > maxQPS {
			return nil, fmt.Errorf("%w: ramp phase %q: qps must be at most %g, got %g", ErrBadSpec, part, maxQPS, qps)
		}
		dur, err := time.ParseDuration(durStr)
		if err != nil {
			return nil, fmt.Errorf("%w: ramp phase %q: bad duration %q", ErrBadSpec, part, durStr)
		}
		if dur <= 0 {
			return nil, fmt.Errorf("%w: ramp phase %q: duration must be positive, got %v", ErrBadSpec, part, dur)
		}
		if dur > math.MaxInt64-total {
			return nil, fmt.Errorf("%w: ramp phase %q: ramp longer than %v", ErrBadSpec, part, time.Duration(math.MaxInt64))
		}
		total += dur
		phases = append(phases, Phase{QPS: qps, Duration: dur})
	}
	if len(phases) == 0 {
		return nil, fmt.Errorf("%w: empty ramp spec", ErrBadSpec)
	}
	return phases, nil
}

// ParseMix parses a model mix of the form "MODEL[=WEIGHT][:CLASS][,...]",
// e.g. "MobileNet 1.0 v1=2:interactive,Deeplab-v3 MobileNet-v2:best-effort".
// An omitted weight is 1; an omitted class is standard. No Table-I model
// name contains a colon, so the class suffix is unambiguous.
func ParseMix(s string) ([]Share, error) {
	var mix []Share
	weights := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, hasWeight := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		class := ""
		weight := 1
		if hasWeight {
			weightStr, class, _ = cutClass(weightStr)
			w, err := strconv.Atoi(strings.TrimSpace(weightStr))
			if err != nil {
				return nil, fmt.Errorf("%w: mix entry %q: bad weight %q", ErrBadSpec, part, weightStr)
			}
			if w <= 0 {
				return nil, fmt.Errorf("%w: mix entry %q: weight must be positive, got %d", ErrBadSpec, part, w)
			}
			weight = w
		} else {
			name, class, _ = cutClass(name)
		}
		if name == "" {
			return nil, fmt.Errorf("%w: mix entry %q has no model name", ErrBadSpec, part)
		}
		cls, err := qos.ParseClass(class)
		if err != nil {
			return nil, fmt.Errorf("%w: mix entry %q: %v", ErrBadSpec, part, err)
		}
		if class != "" {
			class = cls.String() // canonical spelling
		}
		if weight > math.MaxInt-weights {
			return nil, fmt.Errorf("%w: mix entry %q: weights sum past %d", ErrBadSpec, part, math.MaxInt)
		}
		weights += weight
		mix = append(mix, Share{Model: name, Weight: weight, Class: class})
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("%w: empty mix spec", ErrBadSpec)
	}
	return mix, nil
}

// cutClass splits an optional ":CLASS" suffix off a mix segment.
func cutClass(s string) (rest, class string, ok bool) {
	rest, class, ok = strings.Cut(s, ":")
	return strings.TrimSpace(rest), strings.TrimSpace(class), ok
}
