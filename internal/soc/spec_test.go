package soc

import (
	"errors"
	"math"
	"strings"
	"testing"
	"time"
)

// goodSpec returns a valid mid-tier spec for mutation tests.
func goodSpec() Spec {
	return Spec{
		Name: "test part", Chipset: "Snapdragon 7xx", GPUName: "Adreno", DSPName: "Hexagon",
		BigCores: 2, LittleCores: 6, BigGHz: 2.2, LittleGHz: 1.8,
		Gen: 0.7, GPUScale: 0.5, DSPScale: 0.5,
	}
}

// TestSpecValidateTable is the malformed-catalog-spec table: every bad
// shape must fail with an error wrapping ErrBadSpec (the typed-error
// contract mirroring qos.ErrBadLadder), and the message must name the
// offending field family.
func TestSpecValidateTable(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
		want string // substring of the error
	}{
		{"unnamed", func(s *Spec) { s.Name = "" }, "unnamed"},
		{"zero big cores", func(s *Spec) { s.BigCores = 0 }, "missing big cluster"},
		{"negative big cores", func(s *Spec) { s.BigCores = -4 }, "missing big cluster"},
		{"negative little cores", func(s *Spec) { s.LittleCores = -1 }, "negative little cluster"},
		{"zero big clock", func(s *Spec) { s.BigGHz = 0 }, "zero cluster clocks"},
		{"negative big clock", func(s *Spec) { s.BigGHz = -2.2 }, "zero cluster clocks"},
		{"zero little clock", func(s *Spec) { s.LittleGHz = 0 }, "zero cluster clocks"},
		{"zero gen", func(s *Spec) { s.Gen = 0 }, "generation multiplier"},
		{"negative gen", func(s *Spec) { s.Gen = -1 }, "generation multiplier"},
		{"zero gpu scale", func(s *Spec) { s.GPUScale = 0 }, "accelerator scales"},
		{"negative dsp scale", func(s *Spec) { s.DSPScale = -0.5 }, "accelerator scales"},
		{"negative rpc session", func(s *Spec) { s.RPC.SessionSetup = -time.Millisecond }, "negative RPC"},
		{"negative rpc crossing", func(s *Spec) { s.RPC.KernelCrossing = -time.Microsecond }, "negative RPC"},
		{"negative rpc flush", func(s *Spec) { s.RPC.CacheFlushPerKB = -time.Nanosecond }, "negative RPC"},
		{"negative rpc wakeup", func(s *Spec) { s.RPC.DSPWakeup = -time.Microsecond }, "negative RPC"},
		{"negative idle temp", func(s *Spec) { s.IdleTempC = -5 }, "thermal"},
		{"inverted envelope", func(s *Spec) { s.IdleTempC = 50; s.MaxTempC = 40 }, "must exceed"},
		{"idle above default max", func(s *Spec) { s.IdleTempC = 95 }, "must exceed"},
		{"max below default idle", func(s *Spec) { s.MaxTempC = 20 }, "must exceed"},
		{"NaN gen", func(s *Spec) { s.Gen = math.NaN() }, "finite"},
		{"NaN dsp scale", func(s *Spec) { s.DSPScale = math.NaN() }, "finite"},
		{"NaN max temp", func(s *Spec) { s.MaxTempC = math.NaN() }, "finite"},
		{"infinite big clock", func(s *Spec) { s.BigGHz = math.Inf(1) }, "finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := goodSpec()
			tc.mut(&sp)
			err := sp.Validate()
			if err == nil {
				t.Fatal("malformed spec validated")
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error %v does not wrap ErrBadSpec", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if err := goodSpec().Validate(); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
}

// TestSoCValidateTyped pins SoC.Validate to the same typed sentinel.
func TestSoCValidateTyped(t *testing.T) {
	s := Pixel3()
	s.BigCores = 0
	if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("core-count error %v does not wrap ErrBadSpec", err)
	}
	s = Pixel3()
	s.DSP.Int8OpsPerSec = 0
	if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("throughput error %v does not wrap ErrBadSpec", err)
	}
	s = Pixel3()
	s.RPC.SessionSetup = 0
	if err := s.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("rpc error %v does not wrap ErrBadSpec", err)
	}
}

// TestBuildRejectsBadSpec pins Build to the validation contract.
func TestBuildRejectsBadSpec(t *testing.T) {
	sp := goodSpec()
	sp.BigGHz = 0
	if _, err := sp.Build(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Build accepted a bad spec (err %v)", err)
	}
}

// TestTableIISpecsMatchConstructors proves the declarative path derives
// the exact platforms the Table-II constructors ship: same throughputs,
// same RPC params, bit for bit — catalog entries and lab platforms are
// one code path.
func TestTableIISpecsMatchConstructors(t *testing.T) {
	for _, p := range Platforms() {
		entryFor := func(name string) Spec {
			for _, e := range DefaultCatalog() {
				if e.Spec.Name == name {
					return e.Spec
				}
			}
			t.Fatalf("platform %s missing from DefaultCatalog", name)
			return Spec{}
		}
		built, err := entryFor(p.Name).Build()
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if *built != *p {
			t.Fatalf("%s: catalog build differs from constructor:\n%+v\nvs\n%+v", p.Name, built, p)
		}
	}
}

// TestSpecTiers pins the tier derivation across the default catalog:
// Table-II parts are flagship, 7-series mid, 4-series entry, and each
// tier is populated.
func TestSpecTiers(t *testing.T) {
	var seen [NumTiers]int
	for _, e := range DefaultCatalog() {
		seen[e.Spec.Tier()]++
	}
	for tier, n := range seen {
		if n == 0 {
			t.Errorf("tier %s has no catalog entries", Tier(tier))
		}
	}
	if got := tableIISpec("x", "", "", "", 2.8, 1.8, 1.18).Tier(); got != TierFlagship {
		t.Fatalf("SD845-class tier = %s, want flagship", got)
	}
	if got := (Spec{Gen: 0.7}).Tier(); got != TierMid {
		t.Fatalf("gen 0.7 tier = %s, want mid", got)
	}
	if got := (Spec{Gen: 0.3}).Tier(); got != TierEntry {
		t.Fatalf("gen 0.3 tier = %s, want entry", got)
	}
}

// TestDefaultCatalogValid validates the compiled-in population and its
// fleet-relevant shape: slower tiers outweigh flagships.
func TestDefaultCatalogValid(t *testing.T) {
	c := DefaultCatalog()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	var weight [NumTiers]float64
	for _, e := range c {
		weight[e.Spec.Tier()] += e.Weight
	}
	if weight[TierFlagship] >= weight[TierMid]+weight[TierEntry] {
		t.Fatalf("flagship weight %g must be the minority (mid %g, entry %g)",
			weight[TierFlagship], weight[TierMid], weight[TierEntry])
	}
	if c.TotalWeight() <= 0 {
		t.Fatal("zero total weight")
	}
}

// TestCatalogValidateRejects covers catalog-level failures.
func TestCatalogValidateRejects(t *testing.T) {
	if err := (Catalog{}).Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty catalog error %v", err)
	}
	bad := Catalog{{Spec: goodSpec(), Weight: 0}}
	if err := bad.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("zero-weight error %v", err)
	}
	dup := Catalog{{Spec: goodSpec(), Weight: 1}, {Spec: goodSpec(), Weight: 1}}
	if err := dup.Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("duplicate-name error %v", err)
	}
	mangled := goodSpec()
	mangled.Gen = -1
	if err := (Catalog{{Spec: mangled, Weight: 1}}).Validate(); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad-spec error %v", err)
	}
}

// TestLittlelessBuild: a big-only layout still builds all four devices.
func TestLittlelessBuild(t *testing.T) {
	sp := goodSpec()
	sp.LittleCores = 0
	sp.LittleGHz = 0
	s, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestMidTierIsSlower: catalog extrapolation must preserve the ordering
// the tiers are named for.
func TestMidTierIsSlower(t *testing.T) {
	var flag, entry *SoC
	for _, e := range DefaultCatalog() {
		switch {
		case e.Spec.Name == "Google Pixel 3":
			flag = e.Spec.MustBuild()
		case e.Spec.Name == "SD439 reference":
			entry = e.Spec.MustBuild()
		}
	}
	if flag == nil || entry == nil {
		t.Fatal("catalog entries missing")
	}
	if entry.DSP.Int8OpsPerSec >= flag.DSP.Int8OpsPerSec {
		t.Fatal("entry DSP must be slower than flagship")
	}
	if entry.Big.FP32OpsPerSec >= flag.Big.FP32OpsPerSec {
		t.Fatal("entry CPU must be slower than flagship")
	}
	if entry.RPC.KernelCrossing <= flag.RPC.KernelCrossing {
		t.Fatal("entry kernel crossings must be costlier")
	}
}

// FuzzSpecValidate: a spec either fails Validate with an error wrapping
// ErrBadSpec or builds. Build runs only up to 16 cores, to keep each
// input small.
func FuzzSpecValidate(f *testing.F) {
	f.Add(2, 6, 2.2, 1.8, 0.7, 0.5, 0.5, 0.0, 0.0, int64(0), int64(0))
	f.Add(4, 0, 2.8, 0.0, 1.2, 1.0, 1.0, 33.0, 95.0, int64(time.Millisecond), int64(time.Microsecond))
	f.Add(2, 6, math.Inf(1), 1.8, math.NaN(), 0.5, 0.5, 0.0, 10.0, int64(0), int64(-1))
	f.Fuzz(func(t *testing.T, big, little int, bigGHz, littleGHz, gen, gpu, dsp, idle, max float64, setup, crossing int64) {
		sp := goodSpec()
		sp.BigCores, sp.LittleCores, sp.BigGHz, sp.LittleGHz = big, little, bigGHz, littleGHz
		sp.Gen, sp.GPUScale, sp.DSPScale, sp.IdleTempC, sp.MaxTempC = gen, gpu, dsp, idle, max
		sp.RPC.SessionSetup, sp.RPC.KernelCrossing = time.Duration(setup), time.Duration(crossing)
		if err := sp.Validate(); err != nil {
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("Validate(%+v): error %v does not wrap ErrBadSpec", sp, err)
			}
			return
		}
		if big > 16 || little > 16-big {
			return
		}
		if _, err := sp.Build(); err != nil {
			t.Fatalf("Validate accepts %+v, which Build rejects: %v", sp, err)
		}
	})
}
