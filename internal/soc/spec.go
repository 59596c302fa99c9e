package soc

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Tier is the market band a catalog entry belongs to. AI Benchmark
// (Ignatov et al.) shows AI-tax anatomy shifts sharply by chipset tier:
// flagship parts have big NPUs/DSPs and fast fabrics, entry parts run
// everything on slow CPU clusters — so fleet results are reported per
// tier.
type Tier int

// Market bands, ordered slowest to fastest.
const (
	TierEntry Tier = iota
	TierMid
	TierFlagship
	// NumTiers sizes per-tier accumulator arrays.
	NumTiers = 3
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierEntry:
		return "entry"
	case TierMid:
		return "mid"
	case TierFlagship:
		return "flagship"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// Tiers lists the bands fastest first (the report order).
func Tiers() []Tier { return []Tier{TierFlagship, TierMid, TierEntry} }

// ErrBadSpec tags every catalog-spec validation error, so callers
// (catalog loaders, CLI flag parsing, tests) can branch with errors.Is
// instead of matching message text — the qos.ErrBadLadder pattern.
var ErrBadSpec = errors.New("soc: bad catalog spec")

// Spec is the declarative form of one SoC: the handful of published
// figures a data sheet gives (cluster layout and clocks, a generation
// multiplier, GPU/DSP sizing relative to the flagship template, RPC
// transport parameters, thermal envelope), from which Build derives a
// full device model. The four Table-II platforms are themselves built
// from Specs, so catalog entries and lab platforms share one code path.
type Spec struct {
	Name    string // product or reference-design name
	Chipset string // e.g. "Snapdragon 765G"
	GPUName string
	DSPName string

	// Cluster layout and peak clocks (GHz).
	BigCores    int
	LittleCores int
	BigGHz      float64
	LittleGHz   float64

	// Gen scales every throughput figure across generations
	// (1.0 = Snapdragon 835; the flagship cadence is ~18%/generation).
	Gen float64

	// GPUScale and DSPScale size the accelerators relative to the
	// flagship template (1.0 = the Adreno 6xx / Hexagon 6xx class parts
	// of Table II). Mid and entry chipsets ship far smaller blocks.
	GPUScale float64
	DSPScale float64

	// RPC overrides the FastRPC transport parameters. The zero value
	// derives them from Gen the way the Table-II constructors do.
	RPC RPCParams

	// Thermal envelope: idle die temperature and the throttle ceiling.
	// IdleTempC 0 defaults to 33 (§III-D); MaxTempC 0 defaults to 95.
	IdleTempC float64
	MaxTempC  float64
}

// Tier derives the market band from the generation multiplier: the
// SD835..SD865 flagships span 1.0..1.64, 7-series parts land around
// 0.55..0.9, everything below is entry silicon.
func (sp Spec) Tier() Tier {
	switch {
	case sp.Gen >= 0.95:
		return TierFlagship
	case sp.Gen >= 0.55:
		return TierMid
	default:
		return TierEntry
	}
}

// Defaults fills the zero-value conveniences (thermal envelope) without
// touching anything the caller set.
func (sp Spec) Defaults() Spec {
	if sp.IdleTempC == 0 {
		sp.IdleTempC = 33
	}
	if sp.MaxTempC == 0 {
		sp.MaxTempC = 95
	}
	return sp
}

// Validate sanity-checks the declarative spec. Every failure wraps
// ErrBadSpec.
func (sp Spec) Validate() error {
	if sp.Name == "" {
		return fmt.Errorf("%w: unnamed spec", ErrBadSpec)
	}
	// NaN passes every range check below, and Build turns an infinite
	// clock or scale into infinite device throughput.
	for _, v := range []float64{sp.BigGHz, sp.LittleGHz, sp.Gen, sp.GPUScale, sp.DSPScale, sp.IdleTempC, sp.MaxTempC} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: %s: parameters must be finite, got %g", ErrBadSpec, sp.Name, v)
		}
	}
	if sp.BigCores <= 0 {
		return fmt.Errorf("%w: %s: missing big cluster (BigCores %d)", ErrBadSpec, sp.Name, sp.BigCores)
	}
	if sp.LittleCores < 0 {
		return fmt.Errorf("%w: %s: negative little cluster (LittleCores %d)", ErrBadSpec, sp.Name, sp.LittleCores)
	}
	if sp.BigGHz <= 0 || (sp.LittleCores > 0 && sp.LittleGHz <= 0) {
		return fmt.Errorf("%w: %s: zero cluster clocks (big %.2f GHz, little %.2f GHz)",
			ErrBadSpec, sp.Name, sp.BigGHz, sp.LittleGHz)
	}
	if sp.Gen <= 0 {
		return fmt.Errorf("%w: %s: generation multiplier must be positive, got %g", ErrBadSpec, sp.Name, sp.Gen)
	}
	if sp.GPUScale <= 0 || sp.DSPScale <= 0 {
		return fmt.Errorf("%w: %s: accelerator scales must be positive (gpu %g, dsp %g)",
			ErrBadSpec, sp.Name, sp.GPUScale, sp.DSPScale)
	}
	if sp.RPC.SessionSetup < 0 || sp.RPC.KernelCrossing < 0 || sp.RPC.CacheFlushPerKB < 0 || sp.RPC.DSPWakeup < 0 {
		return fmt.Errorf("%w: %s: negative RPC params", ErrBadSpec, sp.Name)
	}
	if sp.IdleTempC < 0 || sp.MaxTempC < 0 {
		return fmt.Errorf("%w: %s: negative thermal envelope", ErrBadSpec, sp.Name)
	}
	// Build fills a zero temperature with its default, so the envelope
	// is checked as Build will use it.
	if d := sp.Defaults(); d.MaxTempC <= d.IdleTempC {
		return fmt.Errorf("%w: %s: MaxTempC %.1f must exceed IdleTempC %.1f",
			ErrBadSpec, sp.Name, d.MaxTempC, d.IdleTempC)
	}
	return nil
}

// Build derives the full device model from the spec — the same formulas
// the Table-II constructors use, generalized by the accelerator scales.
// Little-less layouts (LittleCores 0) reuse the big cluster figures at
// the little clock so schedulers still have a LITTLE target.
func (sp Spec) Build() (*SoC, error) {
	sp = sp.Defaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	g := sp.Gen
	const G = 1e9
	littleGHz := sp.LittleGHz
	if sp.LittleCores == 0 {
		littleGHz = sp.BigGHz
	}
	s := &SoC{
		Name: sp.Name, Chipset: sp.Chipset, GPUName: sp.GPUName, DSPName: sp.DSPName,
		BigCores: sp.BigCores, LittleCores: sp.LittleCores,
		Big: Device{
			Name: "kryo-big", Kind: CPUBig,
			// NEON FMA at ~45% achieved efficiency, SDOT-class int8.
			FP32OpsPerSec:   sp.BigGHz * 7 * G * g,
			Int8OpsPerSec:   sp.BigGHz * 12 * G * g,
			ScalarOpsPerSec: sp.BigGHz * 1.2 * G * g,
			MemBytesPerSec:  9 * G * g,
			ActivePowerW:    2.0,
		},
		Little: Device{
			Name: "kryo-little", Kind: CPULittle,
			FP32OpsPerSec:   littleGHz * 3.5 * G * g,
			Int8OpsPerSec:   littleGHz * 6 * G * g,
			ScalarOpsPerSec: littleGHz * 0.8 * G * g,
			MemBytesPerSec:  5 * G * g,
			ActivePowerW:    0.45,
		},
		GPU: Device{
			Name: "adreno", Kind: GPU,
			FP32OpsPerSec:   90 * G * g * sp.GPUScale,
			Int8OpsPerSec:   120 * G * g * sp.GPUScale,
			ScalarOpsPerSec: 4 * G * g * sp.GPUScale,
			MemBytesPerSec:  18 * G * g * sp.GPUScale,
			ActivePowerW:    3.6,
		},
		DSP: Device{
			Name: "hexagon", Kind: DSP,
			// HVX: enormous int8 throughput, weak fp32 and scalar paths.
			FP32OpsPerSec:   8 * G * g * sp.DSPScale,
			Int8OpsPerSec:   450 * G * g * sp.DSPScale,
			ScalarOpsPerSec: 1.5 * G * g * sp.DSPScale,
			MemBytesPerSec:  14 * G * g * sp.DSPScale,
			ActivePowerW:    1.1,
		},
		RPC:       sp.RPC,
		IdleTempC: sp.IdleTempC,
	}
	if s.RPC == (RPCParams{}) {
		s.RPC = RPCParams{
			SessionSetup:    time.Duration(float64(85*time.Millisecond) / g),
			KernelCrossing:  time.Duration(float64(28*time.Microsecond) / g),
			CacheFlushPerKB: time.Duration(float64(220*time.Nanosecond) / g),
			DSPWakeup:       time.Duration(float64(95*time.Microsecond) / g),
		}
	}
	return s, nil
}

// MustBuild is Build for known-good specs (the compiled-in catalog).
func (sp Spec) MustBuild() *SoC {
	s, err := sp.Build()
	if err != nil {
		panic(err)
	}
	return s
}

// CatalogEntry pairs a spec with its population weight — the share of
// the simulated fleet running this chipset. Weights are relative; the
// sampler normalizes them.
type CatalogEntry struct {
	Spec   Spec
	Weight float64
}

// Catalog is the data-driven SoC population a fleet is sampled from.
type Catalog []CatalogEntry

// Validate checks every entry's spec and weight.
func (c Catalog) Validate() error {
	if len(c) == 0 {
		return fmt.Errorf("%w: empty catalog", ErrBadSpec)
	}
	total := 0.0
	seen := make(map[string]bool, len(c))
	for i, e := range c {
		if err := e.Spec.Defaults().Validate(); err != nil {
			return fmt.Errorf("catalog entry %d: %w", i, err)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("%w: entry %d (%s): weight must be positive, got %g",
				ErrBadSpec, i, e.Spec.Name, e.Weight)
		}
		if seen[e.Spec.Name] {
			return fmt.Errorf("%w: duplicate entry name %q", ErrBadSpec, e.Spec.Name)
		}
		seen[e.Spec.Name] = true
		total += e.Weight
	}
	if total <= 0 {
		return fmt.Errorf("%w: zero total weight", ErrBadSpec)
	}
	return nil
}

// TotalWeight sums the population weights.
func (c Catalog) TotalWeight() float64 {
	total := 0.0
	for _, e := range c {
		total += e.Weight
	}
	return total
}

// tableIISpec reconstructs the Spec behind a Table-II flagship.
func tableIISpec(name, chipset, gpu, dsp string, bigGHz, littleGHz, gen float64) Spec {
	return Spec{
		Name: name, Chipset: chipset, GPUName: gpu, DSPName: dsp,
		BigCores: 4, LittleCores: 4, BigGHz: bigGHz, LittleGHz: littleGHz,
		Gen: gen, GPUScale: 1, DSPScale: 1, IdleTempC: 33, MaxTempC: 95,
	}
}

// DefaultCatalog is the compiled-in device population: the four Table-II
// flagships plus mid-tier and entry-tier reference designs extrapolated
// down the Snapdragon product line (smaller Adreno/Hexagon blocks, lower
// clocks, slower fabrics), weighted the way real fleets skew — mid and
// entry silicon dominates, flagships are the minority. AI Benchmark's
// chipset survey is the shape being mimicked; absolute weights are
// round numbers, not market data.
func DefaultCatalog() Catalog {
	return Catalog{
		{Spec: tableIISpec("Snapdragon 865 HDK", "Snapdragon 865", "Adreno 650", "Hexagon 698", 2.84, 1.80, 1.64), Weight: 5},
		{Spec: tableIISpec("Snapdragon 855 HDK", "Snapdragon 855", "Adreno 640", "Hexagon 690", 2.84, 1.80, 1.39), Weight: 7},
		{Spec: tableIISpec("Google Pixel 3", "Snapdragon 845", "Adreno 630", "Hexagon 685", 2.80, 1.77, 1.18), Weight: 9},
		{Spec: tableIISpec("Open-Q 835 uSOM", "Snapdragon 835", "Adreno 540", "Hexagon 682", 2.45, 1.90, 1.00), Weight: 9},
		{Spec: Spec{
			Name: "SD765G reference", Chipset: "Snapdragon 765G", GPUName: "Adreno 620", DSPName: "Hexagon 696",
			BigCores: 2, LittleCores: 6, BigGHz: 2.40, LittleGHz: 1.80,
			Gen: 0.88, GPUScale: 0.55, DSPScale: 0.60, MaxTempC: 92,
		}, Weight: 14},
		{Spec: Spec{
			Name: "SD730 reference", Chipset: "Snapdragon 730", GPUName: "Adreno 618", DSPName: "Hexagon 688",
			BigCores: 2, LittleCores: 6, BigGHz: 2.20, LittleGHz: 1.80,
			Gen: 0.74, GPUScale: 0.42, DSPScale: 0.48, MaxTempC: 92,
		}, Weight: 16},
		{Spec: Spec{
			Name: "SD675 reference", Chipset: "Snapdragon 675", GPUName: "Adreno 612", DSPName: "Hexagon 685",
			BigCores: 2, LittleCores: 6, BigGHz: 2.00, LittleGHz: 1.70,
			Gen: 0.60, GPUScale: 0.32, DSPScale: 0.38, MaxTempC: 90,
		}, Weight: 13},
		{Spec: Spec{
			Name: "SD460 reference", Chipset: "Snapdragon 460", GPUName: "Adreno 610", DSPName: "Hexagon 683",
			BigCores: 4, LittleCores: 4, BigGHz: 1.80, LittleGHz: 1.60,
			Gen: 0.45, GPUScale: 0.22, DSPScale: 0.20, MaxTempC: 88,
		}, Weight: 12},
		{Spec: Spec{
			Name: "SD439 reference", Chipset: "Snapdragon 439", GPUName: "Adreno 505", DSPName: "Hexagon 536",
			BigCores: 4, LittleCores: 4, BigGHz: 1.95, LittleGHz: 1.45,
			Gen: 0.34, GPUScale: 0.15, DSPScale: 0.12, MaxTempC: 85,
		}, Weight: 9},
		{Spec: Spec{
			Name: "SD429 reference", Chipset: "Snapdragon 429", GPUName: "Adreno 504", DSPName: "Hexagon 536",
			BigCores: 2, LittleCores: 2, BigGHz: 1.95, LittleGHz: 1.45,
			Gen: 0.28, GPUScale: 0.12, DSPScale: 0.10, MaxTempC: 85,
		}, Weight: 6},
	}
}
