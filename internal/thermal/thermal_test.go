package thermal

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestStartsAtAmbient(t *testing.T) {
	m := Default()
	if m.TempC() != 33 {
		t.Fatalf("start temp = %v, want 33", m.TempC())
	}
	if !m.IsIdle() {
		t.Fatal("fresh model must be idle")
	}
	if m.ThrottleFactor() != 1 {
		t.Fatal("idle model must not throttle")
	}
}

func TestHeatsUnderLoad(t *testing.T) {
	m := Default()
	for i := 0; i < 60; i++ {
		m.Advance(time.Second, 1)
	}
	if m.TempC() < 80 {
		t.Fatalf("after 60s full load temp = %v, want >80", m.TempC())
	}
	if m.ThrottleFactor() >= 1 {
		t.Fatal("hot die must throttle")
	}
	if m.IsIdle() {
		t.Fatal("hot die reported idle")
	}
}

func TestCoolsWhenIdle(t *testing.T) {
	m := Default()
	for i := 0; i < 60; i++ {
		m.Advance(time.Second, 1)
	}
	hot := m.TempC()
	for i := 0; i < 300; i++ {
		m.Advance(time.Second, 0)
	}
	if m.TempC() >= hot || m.TempC() > 34 {
		t.Fatalf("cooled temp = %v (was %v)", m.TempC(), hot)
	}
}

func TestReset(t *testing.T) {
	m := Default()
	m.Advance(time.Minute, 1)
	m.Reset()
	if !m.IsIdle() {
		t.Fatal("reset must return to idle")
	}
}

func TestThrottleMonotone(t *testing.T) {
	m := Default()
	prev := m.ThrottleFactor()
	for i := 0; i < 120; i++ {
		m.Advance(time.Second, 1)
		f := m.ThrottleFactor()
		if f > prev+1e-9 {
			t.Fatalf("throttle factor rose while heating: %v -> %v", prev, f)
		}
		prev = f
	}
	if prev < m.ThrottleFloorFactor-1e-9 {
		t.Fatalf("throttle %v fell below floor %v", prev, m.ThrottleFloorFactor)
	}
}

func TestUtilizationClamped(t *testing.T) {
	m := Default()
	m.Advance(time.Second, 5) // clamped to 1
	a := m.TempC()
	m2 := Default()
	m2.Advance(time.Second, 1)
	if a != m2.TempC() {
		t.Fatal("utilization not clamped")
	}
	m3 := Default()
	m3.Advance(time.Hour, -1) // clamped to 0: stays ambient
	if m3.TempC() != m3.AmbientC {
		t.Fatal("negative utilization not clamped")
	}
}

func TestEquilibriumProportionalToLoad(t *testing.T) {
	half := Default()
	for i := 0; i < 600; i++ {
		half.Advance(time.Second, 0.5)
	}
	mid := half.AmbientC + (half.MaxLoadC-half.AmbientC)*0.5
	if d := half.TempC() - mid; d > 1 || d < -1 {
		t.Fatalf("half-load equilibrium = %v, want ~%v", half.TempC(), mid)
	}
}

// heatTo drives the model with full load until it reaches at least
// target (or gives up).
func heatTo(t *testing.T, m *Model, target float64) {
	t.Helper()
	for i := 0; i < 100000 && m.TempC() < target; i++ {
		m.Advance(50*time.Millisecond, 1)
	}
	if m.TempC() < target {
		t.Fatalf("model never reached %g°C (max-load equilibrium %g)", target, m.MaxLoadC)
	}
}

func TestThrottleFactorBoundaries(t *testing.T) {
	m := Default()
	m.tempC = m.ThrottleStartC
	if f := m.ThrottleFactor(); f != 1 {
		t.Fatalf("exactly at throttle start: factor %g, want 1", f)
	}
	m.tempC = m.MaxLoadC
	if f := m.ThrottleFactor(); f != m.ThrottleFloorFactor {
		t.Fatalf("at max load: factor %g, want floor %g", f, m.ThrottleFloorFactor)
	}
	// Past max load the factor clamps at the floor instead of going
	// negative.
	m.tempC = m.MaxLoadC + 20
	if f := m.ThrottleFactor(); f != m.ThrottleFloorFactor {
		t.Fatalf("past max load: factor %g, want clamped floor %g", f, m.ThrottleFloorFactor)
	}
}

func TestThrottleFactorAtAndAboveTrip(t *testing.T) {
	m := Default() // trip 90 sits inside the 72..95 throttle ramp
	m.tempC = m.TripC
	f := m.ThrottleFactor()
	want := 1 - (m.TripC-m.ThrottleStartC)/(m.MaxLoadC-m.ThrottleStartC)*(1-m.ThrottleFloorFactor)
	if math.Abs(f-want) > 1e-12 {
		t.Fatalf("at trip: factor %g, want %g", f, want)
	}
	if !m.Tripped() {
		t.Fatal("at TripC the model must report tripped")
	}
	m.tempC = m.TripC + 10
	if !m.Tripped() {
		t.Fatal("above TripC the model must report tripped")
	}
	if f := m.ThrottleFactor(); f < m.ThrottleFloorFactor || f > 1 {
		t.Fatalf("above trip: factor %g out of [floor, 1]", f)
	}
}

func TestDegenerateThrottleSpan(t *testing.T) {
	// ThrottleStartC == MaxLoadC: the linear ramp has zero width. The
	// factor must step to the floor, not divide by zero.
	m := &Model{AmbientC: 33, MaxLoadC: 80, ThrottleStartC: 80,
		ThrottleFloorFactor: 0.5, TimeConstant: time.Second}
	m.Reset()
	m.tempC = 80
	if f := m.ThrottleFactor(); f != 1 {
		t.Fatalf("at the degenerate threshold: factor %g, want 1 (<= start)", f)
	}
	m.tempC = 80.0001
	f := m.ThrottleFactor()
	if math.IsNaN(f) || math.IsInf(f, 0) {
		t.Fatalf("degenerate span produced %g", f)
	}
	if f != 0.5 {
		t.Fatalf("degenerate span: factor %g, want the floor 0.5", f)
	}
}

func TestThrottleStartEqualsTrip(t *testing.T) {
	// ThrottleC == TripC: throttling and tripping begin at the same
	// temperature; the factor is still exactly 1 at and below it
	// (tempC <= start is unthrottled by contract) while the trip fires
	// at the same instant.
	m := Default()
	m.ThrottleStartC = m.TripC
	m.tempC = m.TripC - 0.001
	if f := m.ThrottleFactor(); f != 1 {
		t.Fatalf("just below start==trip: factor %g, want 1", f)
	}
	if m.Tripped() {
		t.Fatal("below trip must not be tripped")
	}
	m.tempC = m.TripC
	if f := m.ThrottleFactor(); f != 1 {
		t.Fatalf("at start==trip: factor %g, want 1", f)
	}
	if !m.Tripped() {
		t.Fatal("at trip must be tripped")
	}
}

func TestCoolDownReArm(t *testing.T) {
	m := Default()
	m.TimeConstant = time.Second
	heatTo(t, m, m.TripC)
	if !m.Tripped() || m.Headroom() > 0 {
		t.Fatalf("hot die: tripped=%v headroom=%g", m.Tripped(), m.Headroom())
	}
	// Idle cool-down: the model itself re-arms once below TripC (the
	// serving layer latches trips; the model is memoryless).
	for i := 0; i < 100000 && m.Tripped(); i++ {
		m.Advance(50*time.Millisecond, 0)
	}
	if m.Tripped() {
		t.Fatal("model never re-armed while cooling")
	}
	if m.Headroom() <= 0 {
		t.Fatalf("cooled below trip but headroom %g", m.Headroom())
	}
	for i := 0; i < 1000000 && !m.IsIdle(); i++ {
		m.Advance(50*time.Millisecond, 0)
	}
	if !m.IsIdle() {
		t.Fatal("model never cooled back to ambient")
	}
	if f := m.ThrottleFactor(); f != 1 {
		t.Fatalf("idle again: factor %g, want 1", f)
	}
}

func TestHeadroomWithoutTripPoint(t *testing.T) {
	m := Default()
	m.TripC = 0
	if !math.IsInf(m.Headroom(), 1) {
		t.Fatalf("no trip point: headroom %g, want +Inf", m.Headroom())
	}
	m.tempC = 500
	if m.Tripped() {
		t.Fatal("no trip point must never trip")
	}
}

func TestAdvanceRejectsNaNUtilization(t *testing.T) {
	m := Default()
	m.Advance(time.Second, math.NaN())
	if math.IsNaN(m.TempC()) {
		t.Fatal("NaN utilization poisoned the temperature")
	}
	if m.TempC() != m.AmbientC {
		t.Fatalf("NaN utilization heated the die to %g", m.TempC())
	}
}

func TestCloneIsIndependentAndCool(t *testing.T) {
	m := Default()
	heatTo(t, m, m.ThrottleStartC)
	c := m.Clone()
	if !c.IsIdle() {
		t.Fatalf("clone starts at %g, want ambient", c.TempC())
	}
	c.Advance(time.Minute, 1)
	if m.TempC() == c.TempC() {
		t.Fatal("clone shares state with the original")
	}
}

func TestParse(t *testing.T) {
	m, err := Parse("tau=2s,trip=88,start=70,floor=0.6,ambient=30,max=96")
	if err != nil {
		t.Fatal(err)
	}
	if m.TimeConstant != 2*time.Second || m.TripC != 88 || m.ThrottleStartC != 70 ||
		m.ThrottleFloorFactor != 0.6 || m.AmbientC != 30 || m.MaxLoadC != 96 {
		t.Fatalf("parsed %+v", m)
	}
	if m.TempC() != 30 {
		t.Fatalf("parsed model starts at %g, want ambient", m.TempC())
	}
	if _, err := Parse(""); err != nil {
		t.Fatalf("empty spec must be the default model: %v", err)
	}
	bad := []string{
		"tau",          // not key=value
		"tau=warm",     // bad duration
		"tau=0s",       // zero time constant
		"floor=0",      // zero floor
		"floor=2",      // over 1
		"trip=NaN",     // NaN
		"max=20",       // max below ambient
		"trip=10",      // trip below ambient
		"ambient=-Inf", // infinite
		"vendor=qcom",  // unknown key
		"trip=90abc",   // trailing text after a number
		"floor=0.5%",   // trailing text after a number
	}
	for _, in := range bad {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("Parse(%q): error %v does not wrap ErrBadSpec", in, err)
		}
	}
}

func FuzzThermalParse(f *testing.F) {
	for _, seed := range []string{
		"", "tau=2s,trip=88,start=70,floor=0.6,ambient=30,max=96",
		"tau=150ms,trip=90,start=72", "max=10", "trip=NaN", "trip=90abc",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		m, err := Parse(spec)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Parse(%q): error %v does not wrap ErrBadSpec", spec, err)
			}
			return
		}
		if verr := m.Validate(); verr != nil {
			t.Fatalf("Parse(%q) = %+v, which Validate rejects: %v", spec, m, verr)
		}
	})
}
