// Package fleet scales the single-device AI-tax simulation out to a
// population: a data-driven SoC catalog (internal/soc.Catalog) is
// expanded by a seeded sampler into tens of thousands of deterministic
// device configurations — catalog entry × population weight × per-device
// silicon/thermal/transport jitter — and a sharded runner folds every
// device's Table-III tax anatomy into per-tier mergeable statistics.
//
// The memory contract is the point: a run over N devices allocates
// O(shards × tiers), not O(N). Per-device state is a value (Device),
// per-device measurement reuses one cached base anatomy per
// (catalog entry, model) via plan.Cache, and every aggregate is an
// exactly-mergeable structure (stats.Histogram counts, stats.RegAccum
// integer sums), so the shard merge — performed in submission order on
// the lab's deterministic fan-in — yields byte-identical reports at any
// -parallel and any shard count.
package fleet

import (
	"fmt"
	"math"

	"aitax/internal/soc"
)

// gamma is the splitmix64 increment (golden-ratio conjugate in 64 bits).
const gamma = 0x9e3779b97f4a7c15

// mix is the splitmix64 output mixer: a bijective avalanche over 64
// bits. Device jitter derives from mix chains seeded by (fleet seed,
// device index) alone, so a device's configuration is independent of
// how the index space is cut into shards.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// devRand is a value-type per-device random stream. It lives on the
// caller's stack: sampling a device performs zero heap allocations,
// which is what keeps the runner's steady per-device loop alloc-free.
type devRand struct{ s uint64 }

func newDevRand(seed uint64, index int) devRand {
	return devRand{s: mix(seed+gamma) ^ mix(uint64(index)*gamma+1)}
}

func (r *devRand) next() uint64 {
	r.s += gamma
	return mix(r.s)
}

// u01 draws a uniform float in [0, 1).
func (r *devRand) u01() float64 { return float64(r.next()>>11) / (1 << 53) }

// in draws a uniform float in [lo, hi).
func (r *devRand) in(lo, hi float64) float64 { return lo + (hi-lo)*r.u01() }

// Per-device jitter envelopes. Binning spread on CPU and accelerator
// silicon is a few percent; FastRPC transport varies more (driver and
// DDR clock vote differences between device states), and only upward —
// the catalog RPC figures are best-case.
const (
	cpuBinLo, cpuBinHi       = 0.94, 1.06
	accelBinLo, accelBinHi   = 0.92, 1.08
	rpcJitterLo, rpcJitterHi = 0.95, 1.20
	// tempFracMax bounds how far up the thermal envelope a sampled
	// device idles (0.6 → a device never starts beyond 60% of the way
	// from idle to throttle).
	tempFracMax = 0.6
	// thermalDerateMax is the CPU slowdown at the top of the sampled
	// thermal range (sustained-clock loss, not emergency throttling).
	thermalDerateMax = 0.25
)

// Device is one sampled fleet member: a catalog entry plus its jitter.
// It is a plain value — the sampler fabricates it on demand and the
// runner folds it away without retaining it.
type Device struct {
	// Index is the device's position in the fleet [0, Devices).
	Index int
	// Entry is the catalog index of the device's SoC.
	Entry int
	// Tier is the catalog entry's market tier (derived, cached here so
	// the fold does not recompute it per device).
	Tier soc.Tier
	// CPUBin and AccelBin are silicon-binning speed multipliers
	// (>1 = faster than the catalog part).
	CPUBin, AccelBin float64
	// RPCMult scales each frame's recorded FastRPC time (>=~1;
	// transport only degrades relative to the catalog figure).
	RPCMult float64
	// TempC is the device's sampled operating temperature.
	TempC float64
	// CPUDerate is the thermal slowdown multiplier applied to CPU-stage
	// time (1 at idle temperature, up to 1+thermalDerateMax).
	CPUDerate float64
	// Perf is the device's scalar performance index — the regression
	// abscissa: catalog generation multiplier scaled by mean binning.
	Perf float64
	// Model is the index into the run's model list this device runs.
	Model int
}

// Sampler expands a catalog into a deterministic device population.
// Construct with NewSampler; Device(i) is pure (same i → same device)
// and allocation-free.
type Sampler struct {
	cat    soc.Catalog
	seed   uint64
	models int
	// cum is the quantized cumulative weight table for entry selection;
	// total is its last element. Integer weights make the pick exact —
	// no float accumulation order to worry about.
	cum   []uint64
	total uint64
	// tiers caches each entry's tier: Spec.Tier has a value receiver,
	// so calling it per device would copy the whole Spec.
	tiers []soc.Tier
}

// weightQuantum scales float catalog weights to integers (1e6 keeps six
// significant digits of relative weight, far beyond catalog precision).
const weightQuantum = 1e6

// NewSampler validates the catalog and builds a sampler for it. models
// is the length of the run's model list (each device is assigned one
// model by hash); it must be >= 1.
func NewSampler(cat soc.Catalog, seed uint64, models int) (*Sampler, error) {
	if err := cat.Validate(); err != nil {
		return nil, err
	}
	if models < 1 {
		return nil, fmt.Errorf("fleet: sampler needs at least one model, got %d", models)
	}
	s := &Sampler{cat: cat, seed: seed, models: models,
		cum: make([]uint64, len(cat)), tiers: make([]soc.Tier, len(cat))}
	var total uint64
	for i, e := range cat {
		q := uint64(math.Round(e.Weight * weightQuantum))
		if q == 0 {
			q = 1 // a validated weight is > 0; never drop an entry to rounding
		}
		total += q
		s.cum[i] = total
		s.tiers[i] = e.Spec.Tier()
	}
	s.total = total
	return s, nil
}

// Catalog returns the sampler's catalog.
func (s *Sampler) Catalog() soc.Catalog { return s.cat }

// Device fabricates fleet member i. The draw order below is part of the
// determinism contract (docs/FLEET.md): reordering the draws would
// reshuffle every seeded population.
func (s *Sampler) Device(i int) Device {
	r := newDevRand(s.seed, i)

	// Draw 1: catalog entry, by quantized population weight.
	w := r.next() % s.total
	entry := 0
	for s.cum[entry] <= w {
		entry++
	}
	sp := &s.cat[entry].Spec

	// Draws 2-6: jitters, in fixed order.
	d := Device{
		Index:    i,
		Entry:    entry,
		Tier:     s.tiers[entry],
		CPUBin:   r.in(cpuBinLo, cpuBinHi),
		AccelBin: r.in(accelBinLo, accelBinHi),
		RPCMult:  r.in(rpcJitterLo, rpcJitterHi),
	}
	frac := r.in(0, tempFracMax)
	d.TempC = sp.IdleTempC + frac*(sp.MaxTempC-sp.IdleTempC)
	d.CPUDerate = 1 + thermalDerateMax*frac/tempFracMax
	d.Perf = sp.Gen * (d.CPUBin + d.AccelBin) / 2

	// Draw 7: the model this device runs.
	d.Model = int(r.next() % uint64(s.models))
	return d
}
