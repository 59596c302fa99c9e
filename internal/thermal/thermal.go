// Package thermal models SoC die temperature with a first-order lumped
// model: temperature relaxes toward a load-dependent equilibrium with an
// exponential time constant, and sustained heat throttles the CPU. The
// paper's methodology (§III-D) cools the chip to its 33°C idle
// temperature before every run precisely because this effect otherwise
// contaminates measurements.
package thermal

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Model is a lumped thermal state.
type Model struct {
	// AmbientC is the idle equilibrium temperature.
	AmbientC float64
	// MaxLoadC is the equilibrium under full sustained load.
	MaxLoadC float64
	// ThrottleStartC is where frequency capping begins.
	ThrottleStartC float64
	// ThrottleFloorFactor is the worst-case throughput multiplier.
	ThrottleFloorFactor float64
	// TimeConstant controls how fast temperature moves (seconds scale).
	TimeConstant time.Duration
	// TripC, when positive, is the hard-trip temperature: at or above
	// it the accelerator shuts down (the event internal/faults models
	// as a thermal trip). Zero disables the trip point — Headroom is
	// then infinite and Tripped never fires.
	TripC float64

	tempC float64
}

// Default returns the model used for the Snapdragon-class platforms.
func Default() *Model {
	m := &Model{
		AmbientC:            33,
		MaxLoadC:            95,
		ThrottleStartC:      72,
		ThrottleFloorFactor: 0.55,
		TimeConstant:        25 * time.Second,
		TripC:               90,
	}
	m.tempC = m.AmbientC
	return m
}

// TempC returns the current die temperature.
func (m *Model) TempC() float64 { return m.tempC }

// Reset cools the die back to ambient (the paper's pre-run procedure).
func (m *Model) Reset() { m.tempC = m.AmbientC }

// Clone returns an independent copy of the model's parameters, cooled
// back to ambient — the per-run state the serving harnesses advance so
// concurrent or repeated runs never share a die.
func (m *Model) Clone() *Model {
	c := *m
	c.Reset()
	return &c
}

// Advance moves the temperature over dt with the given utilization in
// [0, 1]; equilibrium is linear in utilization between ambient and max.
func (m *Model) Advance(dt time.Duration, utilization float64) {
	if utilization < 0 || math.IsNaN(utilization) {
		utilization = 0
	}
	if utilization > 1 {
		utilization = 1
	}
	target := m.AmbientC + (m.MaxLoadC-m.AmbientC)*utilization
	// First-order relaxation: T += (target - T) * (1 - e^(-dt/tau)),
	// approximated by its linearization for stability at any dt.
	alpha := float64(dt) / float64(m.TimeConstant)
	if alpha > 1 {
		alpha = 1
	}
	m.tempC += (target - m.tempC) * alpha
}

// ThrottleFactor returns the current CPU throughput multiplier: 1.0 below
// the throttle threshold, falling linearly to the floor at max
// temperature. A degenerate span (ThrottleStartC at or above MaxLoadC)
// drops straight to the floor once throttling starts.
func (m *Model) ThrottleFactor() float64 {
	if m.tempC <= m.ThrottleStartC {
		return 1
	}
	span := m.MaxLoadC - m.ThrottleStartC
	if span <= 0 {
		return m.ThrottleFloorFactor
	}
	frac := (m.tempC - m.ThrottleStartC) / span
	if frac > 1 {
		frac = 1
	}
	return 1 - frac*(1-m.ThrottleFloorFactor)
}

// Headroom is the distance to the trip point in °C (negative past it,
// +Inf when no trip point is modeled).
func (m *Model) Headroom() float64 {
	if m.TripC <= 0 {
		return math.Inf(1)
	}
	return m.TripC - m.tempC
}

// Tripped reports whether the die is at or above the trip temperature.
// The model itself is memoryless about trips — cooling below TripC
// re-arms it; callers that need a latched trip (the serving layer)
// record the first firing themselves.
func (m *Model) Tripped() bool { return m.TripC > 0 && m.tempC >= m.TripC }

// IsIdle reports whether the die is within half a degree of ambient,
// i.e. the §III-D precondition for starting a measurement.
func (m *Model) IsIdle() bool { return m.tempC <= m.AmbientC+0.5 }

// ErrBadSpec tags every model-configuration error from Parse and
// Validate, so callers can tell bad input from other failures with
// errors.Is.
var ErrBadSpec = errors.New("thermal: bad model spec")

// Validate reports the first physically meaningless parameter, wrapping
// ErrBadSpec. NaN and infinities are rejected explicitly: they compare
// false against every range check and would otherwise produce a silently
// degenerate model.
func (m *Model) Validate() error {
	bad := func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) }
	switch {
	case bad(m.AmbientC) || bad(m.MaxLoadC) || bad(m.ThrottleStartC) || bad(m.ThrottleFloorFactor) || bad(m.TripC):
		return fmt.Errorf("%w: parameters must be finite (ambient %g, max %g, start %g, floor %g, trip %g)",
			ErrBadSpec, m.AmbientC, m.MaxLoadC, m.ThrottleStartC, m.ThrottleFloorFactor, m.TripC)
	case m.MaxLoadC <= m.AmbientC:
		return fmt.Errorf("%w: max-load temperature %g must exceed ambient %g", ErrBadSpec, m.MaxLoadC, m.AmbientC)
	case m.ThrottleFloorFactor <= 0 || m.ThrottleFloorFactor > 1:
		return fmt.Errorf("%w: throttle floor must be in (0,1], got %g", ErrBadSpec, m.ThrottleFloorFactor)
	case m.TimeConstant <= 0:
		return fmt.Errorf("%w: time constant must be positive, got %v", ErrBadSpec, m.TimeConstant)
	case m.TripC > 0 && m.TripC <= m.AmbientC:
		return fmt.Errorf("%w: trip temperature %g must exceed ambient %g", ErrBadSpec, m.TripC, m.AmbientC)
	}
	return nil
}

// Parse builds a model from a "key=value,..." spec over the defaults:
// ambient, max, start (throttle start), floor, tau, trip. "trip=0"
// disables the trip point. Example: "tau=2s,trip=88,start=70". Numbers
// must be whole (no trailing text), and every error wraps ErrBadSpec.
func Parse(spec string) (*Model, error) {
	m := Default()
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("%w: %q is not key=value", ErrBadSpec, part)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "ambient":
			m.AmbientC, err = strconv.ParseFloat(val, 64)
		case "max":
			m.MaxLoadC, err = strconv.ParseFloat(val, 64)
		case "start":
			m.ThrottleStartC, err = strconv.ParseFloat(val, 64)
		case "floor":
			m.ThrottleFloorFactor, err = strconv.ParseFloat(val, 64)
		case "tau":
			m.TimeConstant, err = time.ParseDuration(val)
		case "trip":
			m.TripC, err = strconv.ParseFloat(val, 64)
		default:
			return nil, fmt.Errorf("%w: unknown key %q", ErrBadSpec, key)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: %s=%q: %v", ErrBadSpec, key, val, err)
		}
	}
	m.Reset()
	return m, m.Validate()
}
