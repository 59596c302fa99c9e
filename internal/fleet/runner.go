package fleet

import (
	"context"
	"fmt"

	"aitax/internal/core"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/stats"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// reportStages are the fleet report's rows, in frame order. RPC is
// broken out of the inference stage: it is transport tax, and the
// paper's cross-SoC comparison (older parts pay proportionally more per
// FastRPC crossing) is exactly what the per-tier split shows. The
// kernel row ("infer") is the rest of inference, framework time
// included.
var reportStages = [...]core.Stage{core.StageCapture, core.StagePre, core.StageRPC, core.StageKernel, core.StagePost, core.StageUI}

// ShareBounds are the histogram bucket bounds for percent-share series
// (stage share of frame, tax share of frame), built once: every share
// histogram in the process shares its bucket table and merges by
// pointer compare.
var ShareBounds = stats.NewBounds([]float64{
	0.25, 0.5, 1, 1.5, 2, 3, 4, 5, 6, 8, 10, 12.5, 15, 17.5, 20, 25,
	30, 35, 40, 45, 50, 55, 60, 65, 70, 75, 80, 85, 90, 95, 100,
})

// Regression quantization grids (see stats.NewRegAccum): performance
// multipliers stay below ~4, shares below 100.
const (
	regXScale = 1e4
	regYScale = 1e2
)

// TierAgg accumulates one tier's population statistics. Every field is
// exactly mergeable — integer bucket counts, exact extremes, fixed-point
// regression sums — so any shard grouping merges to the same state.
type TierAgg struct {
	Devices int64
	Frames  int64
	// Total is the per-frame end-to-end latency distribution (ms).
	Total *stats.Histogram
	// Tax is the per-frame AI-tax share distribution (percent).
	Tax *stats.Histogram
	// Stage holds per-stage share-of-frame distributions (percent),
	// one per reportStages row.
	Stage [len(reportStages)]*stats.Histogram
	// Reg regresses per-device mean tax share (percent) on the device
	// performance index: the "how much worse is the tax on slow parts"
	// trend line, per tier.
	Reg *stats.RegAccum
}

// NewTierAgg returns an empty aggregate.
func NewTierAgg() *TierAgg {
	a := &TierAgg{
		Total: stats.NewHistogram(obs.DefaultBounds),
		Tax:   stats.NewHistogram(ShareBounds),
		Reg:   stats.NewRegAccum(regXScale, regYScale),
	}
	for i := range a.Stage {
		a.Stage[i] = stats.NewHistogram(ShareBounds)
	}
	return a
}

// Merge folds other into a (exact; order-independent end state).
func (a *TierAgg) Merge(other *TierAgg) {
	if other == nil {
		return
	}
	a.Devices += other.Devices
	a.Frames += other.Frames
	a.Total.Merge(other.Total)
	a.Tax.Merge(other.Tax)
	for i := range a.Stage {
		a.Stage[i].Merge(other.Stage[i])
	}
	a.Reg.Merge(other.Reg)
}

// Fold scales the base anatomy by the device's jitter and accumulates
// the resulting frames. The runner folds through the same body with the
// anatomy's frames already in float milliseconds; Fold converts them on
// the stack.
func (a *TierAgg) Fold(d Device, an *Anatomy) {
	fa := newFoldAnatomy(an)
	a.fold(&d, &fa)
}

// fold is the steady per-device loop: it must not allocate
// (BenchmarkFleetShard pins 0 allocs/op), which is why stage math runs
// on stack floats against the preallocated histograms.
func (a *TierAgg) fold(d *Device, an *foldAnatomy) {
	a.Devices++
	cpuScale := d.CPUDerate / d.CPUBin
	taxSum := 0.0
	for i := range an.frames {
		f := &an.frames[i]
		capture := f.capture * cpuScale
		pre := f.pre * cpuScale
		post := f.post * cpuScale
		ui := f.ui * cpuScale
		rpc := f.rpc * d.RPCMult
		infer := f.kernel
		if an.accel {
			infer /= d.AccelBin
		} else {
			infer *= cpuScale
		}
		total := capture + pre + rpc + infer + post + ui
		taxPct := (total - infer) / total * 100

		a.Frames++
		a.Total.Observe(total)
		a.Tax.Observe(taxPct)
		for s, v := range [len(reportStages)]float64{capture, pre, rpc, infer, post, ui} {
			a.Stage[s].Observe(v / total * 100)
		}
		taxSum += taxPct
	}
	a.Reg.Add(d.Perf, taxSum/float64(len(an.frames)))
}

// Config selects a fleet run.
type Config struct {
	// Catalog is the SoC population (soc.DefaultCatalog when nil).
	Catalog soc.Catalog
	// Devices is the fleet size.
	Devices int
	// Shards cuts the device index space into contiguous jobs
	// (default 32). The report is byte-identical at any value.
	Shards int
	// Models is the application mix; each device runs one, assigned by
	// seeded hash.
	Models []*models.Model
	// DType and Delegate select the inference configuration.
	DType    tensor.DType
	Delegate tflite.Delegate
	// Seed drives every sampled quantity.
	Seed uint64
	// Parallel bounds the lab worker pool (<=0: GOMAXPROCS). The report
	// is byte-identical at any value.
	Parallel int
	// Plans is the anatomy cache (plan.Shared when nil).
	Plans *plan.Cache
	// OnProgress, when set, receives each shard's lab result as it
	// completes (completion order; stderr reporting only).
	OnProgress func(lab.JobResult)
}

// ShardAgg is one shard's (or the merged run's) per-tier aggregates —
// the unit of fleet memory: a run holds O(shards × tiers) of these and
// nothing per device.
type ShardAgg struct {
	Tiers [soc.NumTiers]*TierAgg
}

// NewShardAgg returns an empty per-tier aggregate set.
func NewShardAgg() *ShardAgg {
	s := &ShardAgg{}
	for i := range s.Tiers {
		s.Tiers[i] = NewTierAgg()
	}
	return s
}

// Merge folds other into s tier by tier.
func (s *ShardAgg) Merge(other *ShardAgg) {
	for i := range s.Tiers {
		s.Tiers[i].Merge(other.Tiers[i])
	}
}

// All merges every tier into one population-wide aggregate.
func (s *ShardAgg) All() *TierAgg {
	all := NewTierAgg()
	for _, t := range s.Tiers {
		all.Merge(t)
	}
	return all
}

// Result is a completed fleet run.
type Result struct {
	// Devices and Shards echo the resolved run shape.
	Devices, Shards int
	// Models echoes the application mix.
	Models []*models.Model
	// PerShard holds each shard's aggregates in submission order — the
	// convergence trail the Chrome counter export walks.
	PerShard []*ShardAgg
	// Merged is the submission-order merge of PerShard.
	Merged *ShardAgg
}

// shardBounds cuts [0, devices) into contiguous ranges.
func shardBounds(devices, shards, s int) (lo, hi int) {
	return s * devices / shards, (s + 1) * devices / shards
}

// Run executes the fleet simulation: shards fan out on the lab pool,
// each folds its contiguous device range against cached base anatomies,
// and the per-shard aggregates merge in submission order.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Catalog == nil {
		cfg.Catalog = soc.DefaultCatalog()
	}
	if cfg.Devices < 1 {
		return nil, fmt.Errorf("fleet: need at least 1 device, got %d", cfg.Devices)
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 32
	}
	if cfg.Shards > cfg.Devices {
		cfg.Shards = cfg.Devices
	}
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("fleet: need at least one model")
	}
	plans := cfg.Plans
	if plans == nil {
		plans = plan.Shared
	}
	sampler, err := NewSampler(cfg.Catalog, cfg.Seed, len(cfg.Models))
	if err != nil {
		return nil, err
	}

	jobs := make([]lab.Job, cfg.Shards)
	for s := 0; s < cfg.Shards; s++ {
		lo, hi := shardBounds(cfg.Devices, cfg.Shards, s)
		jobs[s] = lab.Job{
			ID: fmt.Sprintf("shard-%d[%d:%d]", s, lo, hi),
			Run: func(ctx context.Context) (any, error) {
				return runShard(sampler, cfg, plans, lo, hi)
			},
		}
	}
	l := lab.Lab{Parallelism: cfg.Parallel, OnProgress: cfg.OnProgress}
	results := l.Run(ctx, jobs)

	res := &Result{
		Devices:  cfg.Devices,
		Shards:   cfg.Shards,
		Models:   cfg.Models,
		PerShard: make([]*ShardAgg, 0, cfg.Shards),
		Merged:   NewShardAgg(),
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("fleet: %s: %w", r.ID, r.Err)
		}
		agg := r.Value.(*ShardAgg)
		res.PerShard = append(res.PerShard, agg)
		res.Merged.Merge(agg)
	}
	return res, nil
}

// runShard folds one contiguous device range. The anatomy array is the
// shard's warm path: after the first device of each (entry, model) pair
// resolves its anatomy through the plan cache, every later device costs
// sampling plus 32 histogram observations and zero allocations: about
// 360 ns on a 2-vCPU Xeon VM (BenchmarkFleetShard). The array holds
// pointers into the cache, so no shard copies frames.
func runShard(sampler *Sampler, cfg Config, plans *plan.Cache, lo, hi int) (*ShardAgg, error) {
	agg := NewShardAgg()
	anats := make([]*anatomyResult, len(sampler.Catalog())*len(cfg.Models))
	for i := lo; i < hi; i++ {
		d := sampler.Device(i)
		slot := d.Entry*len(cfg.Models) + d.Model
		res := anats[slot]
		if res == nil {
			res = anatomyFor(plans, &sampler.Catalog()[d.Entry].Spec,
				cfg.Models[d.Model], cfg.DType, cfg.Delegate, cfg.Seed)
			if res.err != nil {
				return nil, res.err
			}
			anats[slot] = res
		}
		agg.Tiers[d.Tier].fold(&d, &res.fold)
	}
	return agg, nil
}
