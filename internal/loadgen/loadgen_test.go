package loadgen

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"
)

func spec() Spec {
	return Spec{
		Seed: 42,
		Phases: []Phase{
			{QPS: 100, Duration: time.Second},
			{QPS: 400, Duration: 500 * time.Millisecond},
		},
		Mix: []Share{
			{Model: "MobileNet 1.0 v1", Weight: 2},
			{Model: "Deeplab-v3 MobileNet-v2", Weight: 1},
		},
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := spec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generations of the same spec differ")
	}
	if len(a) == 0 {
		t.Fatal("no arrivals generated")
	}
}

func TestGenerateOrderedAndBounded(t *testing.T) {
	s := spec()
	arrivals, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	last := time.Duration(-1)
	for i, a := range arrivals {
		if a.ID != i {
			t.Fatalf("arrival %d has ID %d", i, a.ID)
		}
		if a.At <= last {
			t.Fatalf("arrival %d at %v not after previous %v", i, a.At, last)
		}
		last = a.At
		if a.At >= s.Duration() {
			t.Fatalf("arrival %d at %v beyond ramp end %v", i, a.At, s.Duration())
		}
		if a.Model != "MobileNet 1.0 v1" && a.Model != "Deeplab-v3 MobileNet-v2" {
			t.Fatalf("arrival %d has model %q outside the mix", i, a.Model)
		}
	}
}

func TestGenerateRateRoughlyHonoured(t *testing.T) {
	// 100 QPS for 1s + 400 QPS for 0.5s offers 300 expected arrivals;
	// a Poisson count should land well within ±40%.
	arrivals, err := spec().Generate()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(arrivals); n < 180 || n > 420 {
		t.Fatalf("got %d arrivals, want roughly 300", n)
	}
	// The 400-QPS phase should hold more than a third of the traffic
	// despite being half as long as the 100-QPS phase.
	second := 0
	for _, a := range arrivals {
		if a.At >= time.Second {
			second++
		}
	}
	if second <= len(arrivals)/3 {
		t.Fatalf("high-QPS phase got %d of %d arrivals", second, len(arrivals))
	}
}

func TestSeedChangesSchedule(t *testing.T) {
	a, _ := spec().Generate()
	s2 := spec()
	s2.Seed = 43
	b, _ := s2.Generate()
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestParseRamp(t *testing.T) {
	phases, err := ParseRamp("50x2s, 12.5x500ms, 1e9x1us")
	if err != nil {
		t.Fatal(err)
	}
	want := []Phase{{QPS: 50, Duration: 2 * time.Second}, {QPS: 12.5, Duration: 500 * time.Millisecond},
		{QPS: 1e9, Duration: time.Microsecond}}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("got %+v, want %+v", phases, want)
	}
	for _, bad := range []string{"", "50", "x2s", "50x", "fastx2s", "50xlong"} {
		if _, err := ParseRamp(bad); err == nil {
			t.Errorf("ParseRamp(%q) succeeded, want error", bad)
		}
	}
}

func TestParseMix(t *testing.T) {
	mix, err := ParseMix("MobileNet 1.0 v1=2, Deeplab-v3 MobileNet-v2")
	if err != nil {
		t.Fatal(err)
	}
	want := []Share{{Model: "MobileNet 1.0 v1", Weight: 2}, {Model: "Deeplab-v3 MobileNet-v2", Weight: 1}}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("got %+v, want %+v", mix, want)
	}
	for _, bad := range []string{"", "m=x", "m=", ",", "a=9223372036854775807,b=9223372036854775807"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", bad)
		}
	}
}

func TestValidate(t *testing.T) {
	good := spec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Spec){
		func(s *Spec) { s.Phases = nil },
		func(s *Spec) { s.Phases[0].QPS = 0 },
		func(s *Spec) { s.Phases[0].Duration = 0 },
		func(s *Spec) { s.Mix = nil },
		func(s *Spec) { s.Mix[0].Weight = 0 },
		func(s *Spec) { s.Mix[0].Model = "" },
		// Above 1e9 QPS the mean gap is below the 1 ns clock.
		func(s *Spec) { s.Phases[1].QPS = 2e9 },
		func(s *Spec) { s.Phases[0].Duration = math.MaxInt64 },
		// Generate draws from [0, sum of weights): the sum must fit an int.
		func(s *Spec) { s.Mix[0].Weight, s.Mix[1].Weight = math.MaxInt, math.MaxInt },
	}
	for i, mutate := range cases {
		s := spec()
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: Validate succeeded, want error", i)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: error %v does not wrap ErrBadSpec", i, err)
		}
	}
}

func TestValidateRejectsNaNAndInf(t *testing.T) {
	// NaN compares false against "<= 0", so an untyped range check
	// would silently accept it and generate a degenerate schedule.
	cases := []func(*Spec){
		func(s *Spec) { s.Phases[0].QPS = math.NaN() },
		func(s *Spec) { s.Phases[0].QPS = math.Inf(1) },
		func(s *Spec) { s.Phases[0].QPS = -5 },
		func(s *Spec) { s.Mix[0].Class = "vip" },
	}
	for i, mutate := range cases {
		s := spec()
		mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("case %d: Validate succeeded, want error", i)
			continue
		}
		if !errors.Is(err, ErrBadSpec) {
			t.Errorf("case %d: error %v does not wrap ErrBadSpec", i, err)
		}
		if _, err := s.Generate(); err == nil {
			t.Errorf("case %d: Generate succeeded on an invalid spec", i)
		}
	}
}

func TestParseMixClasses(t *testing.T) {
	mix, err := ParseMix("MobileNet 1.0 v1=3:interactive, SqueezeNet:be, Deeplab-v3 MobileNet-v2=1")
	if err != nil {
		t.Fatal(err)
	}
	want := []Share{
		{Model: "MobileNet 1.0 v1", Weight: 3, Class: "interactive"},
		{Model: "SqueezeNet", Weight: 1, Class: "best-effort"},
		{Model: "Deeplab-v3 MobileNet-v2", Weight: 1, Class: ""},
	}
	if !reflect.DeepEqual(mix, want) {
		t.Fatalf("got %+v, want %+v", mix, want)
	}
	for _, bad := range []string{"m=1:vip", "m:platinum", ":interactive", "m=0:be", "m=-2"} {
		if _, err := ParseMix(bad); err == nil {
			t.Errorf("ParseMix(%q) succeeded, want error", bad)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseMix(%q): error %v does not wrap ErrBadSpec", bad, err)
		}
	}
}

func TestGeneratePropagatesClass(t *testing.T) {
	s := spec()
	s.Mix[0].Class = "interactive"
	s.Mix[1].Class = "best-effort"
	arrivals, err := s.Generate()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		want := "interactive"
		if a.Model == "Deeplab-v3 MobileNet-v2" {
			want = "best-effort"
		}
		if a.Class != want {
			t.Fatalf("arrival %d (%s) has class %q, want %q", a.ID, a.Model, a.Class, want)
		}
	}
}

func TestParseRampRejectsNonPositive(t *testing.T) {
	for _, bad := range []string{"NaN x1s", "NaNx1s", "0x1s", "-5x1s", "+Infx1s", "5x0s", "5x-1s",
		"2e9x1s", "10x1s,1.5e9x1ms", "1x2562047h,1x2562047h"} {
		if _, err := ParseRamp(bad); err == nil {
			t.Errorf("ParseRamp(%q) succeeded, want error", bad)
		} else if !errors.Is(err, ErrBadSpec) {
			t.Errorf("ParseRamp(%q): error %v does not wrap ErrBadSpec", bad, err)
		}
	}
}

// TestGenerateTerminatesAtTinyRates: at a tiny QPS an exponential gap
// can exceed the range of a time.Duration (or be +Inf at 1e-300 QPS).
// Such a gap must end the phase, not wrap the arrival time negative and
// loop forever.
func TestGenerateTerminatesAtTinyRates(t *testing.T) {
	for _, qps := range []float64{1e-300, 1e-12} {
		s := spec()
		s.Phases[0].QPS = qps
		got := make(chan []Arrival, 1)
		go func() {
			arrivals, err := s.Generate()
			if err != nil {
				t.Error(err)
			}
			got <- arrivals
		}()
		select {
		case arrivals := <-got:
			for _, a := range arrivals {
				if a.At < s.Phases[0].Duration {
					t.Fatalf("%g QPS: arrival %d at %v inside the silent phase", qps, a.ID, a.At)
				}
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("Generate at %g QPS did not return within 2s", qps)
		}
	}
}

func FuzzParseRamp(f *testing.F) {
	for _, seed := range []string{
		"10x1s,150x1s", "50x2s,200x2s,50x1s", "0.5x3s", "1e-300x1s", "1e-12x1s",
		"1e9x1ns", "2e9x1s", "NaNx1s", "5x-1s", "x", "1x2562047h,1x2562047h", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		phases, err := ParseRamp(in)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseRamp(%q): error %v does not wrap ErrBadSpec", in, err)
			}
			return
		}
		s := Spec{Seed: 1, Phases: phases, Mix: []Share{{Model: "m", Weight: 1}}}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseRamp(%q) = %+v, which Validate rejects: %v", in, phases, err)
		}
		// Cap each phase at 1,000 expected arrivals to keep the
		// schedule small; tiny rates keep their full length.
		for i, p := range s.Phases {
			if p.QPS*p.Duration.Seconds() > 1000 {
				s.Phases[i].Duration = time.Duration(1000 / p.QPS * float64(time.Second))
			}
		}
		arrivals, err := s.Generate()
		if err != nil {
			t.Fatalf("Generate(%q): %v", in, err)
		}
		last := time.Duration(0)
		for _, a := range arrivals {
			if a.At < last || a.At >= s.Duration() {
				t.Fatalf("ramp %q: arrival %d at %v, previous %v, ramp end %v", in, a.ID, a.At, last, s.Duration())
			}
			last = a.At
		}
	})
}

func FuzzParseMix(f *testing.F) {
	for _, seed := range []string{
		"MobileNet 1.0 v1=2:interactive,Deeplab-v3 MobileNet-v2:best-effort",
		"m", "m=0", "m=x", "m=1:vip", ":interactive", "=1", ",", "",
		"a=9223372036854775807,b=9223372036854775807", "a=9223372036854775806,b=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		mix, err := ParseMix(in)
		if err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("ParseMix(%q): error %v does not wrap ErrBadSpec", in, err)
			}
			return
		}
		s := Spec{Seed: 1, Phases: []Phase{{QPS: 1000, Duration: 10 * time.Millisecond}}, Mix: mix}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseMix(%q) = %+v, which Validate rejects: %v", in, mix, err)
		}
		arrivals, err := s.Generate()
		if err != nil {
			t.Fatalf("Generate(%q): %v", in, err)
		}
		for _, a := range arrivals {
			if a.Model == "" {
				t.Fatalf("mix %q: arrival %d drew no model", in, a.ID)
			}
		}
	})
}
