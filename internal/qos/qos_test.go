package qos

import (
	"errors"
	"math"
	"testing"
	"time"
)

func mustController(t *testing.T, l Ladder) *Controller {
	t.Helper()
	c, err := NewController(l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// tickN runs n ticks with the given per-tick feed and signals,
// returning the last tick.
func tickN(c *Controller, n int, good, bad int, sig Signals) Tick {
	var last Tick
	for i := 0; i < n; i++ {
		for g := 0; g < good; g++ {
			c.ObserveGood()
		}
		for b := 0; b < bad; b++ {
			c.ObserveBad()
		}
		last = c.TickAt(time.Duration(i)*50*time.Millisecond, sig)
	}
	return last
}

func TestParseClass(t *testing.T) {
	cases := []struct {
		in   string
		want Class
		ok   bool
	}{
		{"", Standard, true},
		{"standard", Standard, true},
		{"std", Standard, true},
		{"Interactive", Interactive, true},
		{" best-effort ", BestEffort, true},
		{"besteffort", BestEffort, true},
		{"be", BestEffort, true},
		{"vip", 0, false},
		{"0", 0, false},
	}
	for _, tc := range cases {
		got, err := ParseClass(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseClass(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err != nil {
			if !errors.Is(err, ErrBadLadder) {
				t.Errorf("ParseClass(%q): error %v does not wrap ErrBadLadder", tc.in, err)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("ParseClass(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for _, c := range []Class{Interactive, Standard, BestEffort} {
		back, err := ParseClass(c.String())
		if err != nil || back != c {
			t.Errorf("ParseClass(%v.String()) = %v, %v", c, back, err)
		}
	}
}

func TestParseLadder(t *testing.T) {
	good := []struct {
		in    string
		check func(Ladder) bool
	}{
		{"", func(l Ladder) bool { return l.Tick == 50*time.Millisecond && l.Hold == 8 }},
		{"on", func(l Ladder) bool { return l == Ladder{}.Defaults() }},
		{"default", func(l Ladder) bool { return l == Ladder{}.Defaults() }},
		{"tick=100ms,hold=4", func(l Ladder) bool { return l.Tick == 100*time.Millisecond && l.Hold == 4 }},
		{"enter=0.4/0.6/0.8,exit=0.2/0.3/0.4", func(l Ladder) bool {
			return l.Enter == [NumRungs]float64{0.4, 0.6, 0.8} && l.Exit == [NumRungs]float64{0.2, 0.3, 0.4}
		}},
		{"budget=0.1,page=5,headroom=15", func(l Ladder) bool {
			return l.Budget == 0.1 && l.Page == 5 && l.SteerHeadroomC == 15
		}},
		{"short=2,long=8", func(l Ladder) bool { return l.ShortTicks == 2 && l.LongTicks == 8 }},
	}
	for _, tc := range good {
		l, err := ParseLadder(tc.in)
		if err != nil {
			t.Errorf("ParseLadder(%q): %v", tc.in, err)
			continue
		}
		if !tc.check(l) {
			t.Errorf("ParseLadder(%q) = %+v fails its check", tc.in, l)
		}
	}

	bad := []string{
		"tick",               // not key=value
		"tick=fast",          // unparseable duration
		"tick=0s",            // zero tick
		"tick=-50ms",         // negative tick
		"hold=0",             // hysteresis needs at least one tick
		"hold=-3",            // negative
		"short=0",            // empty horizon
		"short=8,long=4",     // long shorter than short
		"long=100000",        // over the horizon cap
		"budget=0",           // empty budget
		"budget=1.5",         // over 1
		"budget=NaN",         // NaN must not slip through range checks
		"page=NaN",           // NaN
		"page=-2",            // negative
		"headroom=0",         // zero headroom span
		"headroom=+Inf",      // infinite
		"enter=0.5/0.7",      // wrong arity
		"enter=a/b/c",        // garbage thresholds
		"enter=0/0.7/0.9",    // zero enter
		"exit=0.6/0.4/0.6",   // exit[0] >= enter[0]
		"enter=0.9/0.7/0.95", // non-monotonic enters
		"exit=NaN/0.4/0.6",   // NaN threshold
		"turbo=1",            // unknown key
		"hold=8x",            // trailing text after an integer
		"budget=0.05%",       // trailing text after a float
		"enter=0.5/0.7/0.9z", // trailing text after a threshold
	}
	for _, in := range bad {
		if _, err := ParseLadder(in); err == nil {
			t.Errorf("ParseLadder(%q) succeeded, want error", in)
		} else if !errors.Is(err, ErrBadLadder) {
			t.Errorf("ParseLadder(%q): error %v does not wrap ErrBadLadder", in, err)
		}
	}
}

// FuzzParseClass: an input either fails with an error wrapping
// ErrBadLadder or yields a class whose name parses back to it.
func FuzzParseClass(f *testing.F) {
	for _, seed := range []string{"", "standard", "std", "Interactive", " best-effort ", "be", "vip", "class(3)"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		c, err := ParseClass(in)
		if err != nil {
			if !errors.Is(err, ErrBadLadder) {
				t.Fatalf("ParseClass(%q): error %v does not wrap ErrBadLadder", in, err)
			}
			return
		}
		if back, err := ParseClass(c.String()); err != nil || back != c {
			t.Fatalf("ParseClass(%q) = %v, whose name parses to %v, %v", in, c, back, err)
		}
	})
}

func FuzzParseLadder(f *testing.F) {
	for _, seed := range []string{
		"", "on", "tick=100ms,hold=4", "enter=0.4/0.6/0.8,exit=0.2/0.3/0.4",
		"tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15",
		"budget=NaN", "hold=8x",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		l, err := ParseLadder(spec)
		if err != nil {
			if !errors.Is(err, ErrBadLadder) {
				t.Fatalf("ParseLadder(%q): error %v does not wrap ErrBadLadder", spec, err)
			}
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("ParseLadder(%q) = %+v, which Validate rejects: %v", spec, l, verr)
		}
	})
}

func TestValidateRejectsNaNFields(t *testing.T) {
	l := Ladder{}.Defaults()
	l.Budget = math.NaN()
	if err := l.Validate(); err == nil {
		t.Fatal("NaN budget validated — NaN compares false against every range check")
	}
	l = Ladder{}.Defaults()
	l.Enter[1] = math.Inf(1)
	if err := l.Validate(); err == nil {
		t.Fatal("Inf enter threshold validated")
	}
}

func TestLadderClimbsOneRungPerTick(t *testing.T) {
	c := mustController(t, Ladder{})
	// All-bad traffic: burn saturates, pressure >= 1 from the first
	// closed tick, so the controller climbs 0→1→2→3 over three ticks.
	for want := 1; want <= NumRungs; want++ {
		tk := tickN(c, 1, 0, 10, Signals{HeadroomC: 100})
		if tk.Level != want || !tk.Changed {
			t.Fatalf("tick %d: level %d changed=%v, want climb to %d", want, tk.Level, tk.Changed, want)
		}
		if tk.Driver != DriverBurn {
			t.Fatalf("tick %d: driver %q, want burn", want, tk.Driver)
		}
	}
	if !c.Shed(BestEffort) || !c.Downshift() || !c.Steer() {
		t.Fatal("at the top rung all three actions must be engaged")
	}
	if c.Shed(Interactive) || c.Shed(Standard) {
		t.Fatal("interactive/standard must never be shed")
	}
}

func TestRecoveryRequiresHoldCalmTicks(t *testing.T) {
	l := Ladder{Hold: 3, ShortTicks: 2, LongTicks: 4}.Defaults()
	c := mustController(t, l)
	tickN(c, NumRungs, 0, 10, Signals{HeadroomC: 100})
	if c.Level() != NumRungs {
		t.Fatalf("setup: level %d, want %d", c.Level(), NumRungs)
	}
	// Good traffic: the burn horizons drain over LongTicks, then the
	// calm counter must see Hold consecutive sub-exit ticks per rung.
	steps := 0
	for c.Level() > 0 {
		tickN(c, 1, 10, 0, Signals{HeadroomC: 100})
		steps++
		if steps > 100 {
			t.Fatal("controller never recovered")
		}
	}
	// Descending three rungs takes at least 3*Hold calm ticks — strictly
	// more than one Hold, proving the per-rung re-arm.
	if steps < 3*l.Hold {
		t.Fatalf("recovered in %d ticks, want at least %d (Hold per rung)", steps, 3*l.Hold)
	}
}

func TestHysteresisBandForfeitsCalm(t *testing.T) {
	l := Ladder{Hold: 2, ShortTicks: 1, LongTicks: 1}.Defaults()
	c := mustController(t, l)
	tickN(c, 1, 0, 10, Signals{HeadroomC: 100}) // climb to 1
	if c.Level() != 1 {
		t.Fatalf("level %d, want 1", c.Level())
	}
	// Alternate calm (below exit[0]) and band (between exit[0] and
	// enter[1]) ticks via the queue signal: calm never reaches Hold=2
	// consecutively, so the level must not flap down.
	for i := 0; i < 10; i++ {
		sig := Signals{QueueFrac: 0.1, HeadroomC: 100} // calm
		if i%2 == 1 {
			sig.QueueFrac = 0.5 // inside the band: exit[0]=0.25 <= p < enter[1]=0.7
		}
		tk := tickN(c, 1, 0, 0, sig)
		if tk.Level != 1 {
			t.Fatalf("tick %d: level %d, want the band to hold level 1", i, tk.Level)
		}
	}
	// Two consecutive calm ticks now release the rung.
	tickN(c, 1, 0, 0, Signals{QueueFrac: 0.1, HeadroomC: 100})
	tk := tickN(c, 1, 0, 0, Signals{QueueFrac: 0.1, HeadroomC: 100})
	if tk.Level != 0 {
		t.Fatalf("level %d after Hold calm ticks, want 0", tk.Level)
	}
}

func TestThermalPressureSteersBeforeTrip(t *testing.T) {
	c := mustController(t, Ladder{})
	// Headroom shrinking below SteerHeadroomC (10): at 0.5°C of
	// headroom thermal pressure is 0.95 ≥ every enter threshold, so the
	// ladder climbs to the steer rung while the trip has NOT fired.
	for i := 0; i < NumRungs; i++ {
		tk := tickN(c, 1, 10, 0, Signals{HeadroomC: 0.5})
		if tk.Driver != DriverThermal {
			t.Fatalf("driver %q, want thermal", tk.Driver)
		}
	}
	if !c.Steer() {
		t.Fatal("steer must engage from thermal headroom alone, before the trip")
	}
}

func TestTrippedSaturatesPressure(t *testing.T) {
	c := mustController(t, Ladder{})
	tk := tickN(c, 1, 10, 0, Signals{HeadroomC: 50, Tripped: true})
	if tk.Pressure != 2 || tk.Driver != DriverThermal {
		t.Fatalf("tripped tick: pressure %g driver %q, want 2/thermal", tk.Pressure, tk.Driver)
	}
}

func TestFrozenControllerObservesButNeverActs(t *testing.T) {
	c := mustController(t, Ladder{})
	c.Freeze()
	tk := tickN(c, 10, 0, 10, Signals{HeadroomC: 1, Tripped: true})
	if tk.Level != 0 || c.Level() != 0 {
		t.Fatalf("frozen controller moved to level %d", tk.Level)
	}
	if tk.Pressure == 0 || tk.Burn == 0 {
		t.Fatalf("frozen controller must still report pressure/burn, got %g/%g", tk.Pressure, tk.Burn)
	}
	if c.Shed(BestEffort) || c.Downshift() || c.Steer() {
		t.Fatal("frozen controller engaged an action")
	}
}

func TestIdleDriverAndZeroTraffic(t *testing.T) {
	c := mustController(t, Ladder{})
	tk := tickN(c, 5, 0, 0, Signals{HeadroomC: 100})
	if tk.Pressure != 0 || tk.Driver != DriverIdle || tk.Level != 0 {
		t.Fatalf("idle tick: %+v", tk)
	}
}

func TestBurnHorizonsUseMin(t *testing.T) {
	l := Ladder{ShortTicks: 2, LongTicks: 8}.Defaults()
	c := mustController(t, l)
	// One very bad tick inside an otherwise good long horizon: the
	// short horizon spikes but the long one stays low — min() keeps a
	// single blip from climbing the ladder (the multiwindow rule).
	tickN(c, 7, 10, 0, Signals{HeadroomC: 100})
	tk := tickN(c, 1, 0, 10, Signals{HeadroomC: 100})
	if tk.Level != 0 {
		t.Fatalf("one-tick blip moved the ladder to %d", tk.Level)
	}
}

func TestControllerTickDoesNotAllocate(t *testing.T) {
	c := mustController(t, Ladder{})
	sig := Signals{QueueFrac: 0.4, HeadroomC: 8}
	n := testing.AllocsPerRun(1000, func() {
		c.ObserveGood()
		c.ObserveBad()
		c.TickAt(0, sig)
	})
	if n != 0 {
		t.Fatalf("controller tick allocates %.1f allocs/op, want 0", n)
	}
}

func BenchmarkControllerTick(b *testing.B) {
	c, err := NewController(Ladder{})
	if err != nil {
		b.Fatal(err)
	}
	sig := Signals{QueueFrac: 0.4, HeadroomC: 8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ObserveGood()
		c.ObserveBad()
		c.TickAt(time.Duration(i), sig)
	}
}
