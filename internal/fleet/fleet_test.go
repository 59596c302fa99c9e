package fleet

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"aitax/internal/models"
	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/stats"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

func testModels(t testing.TB, names ...string) []*models.Model {
	out := make([]*models.Model, len(names))
	for i, n := range names {
		m, err := models.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// TestSamplerDeterministic: Device(i) is a pure function of (catalog,
// seed, i) — two samplers agree, and the value is independent of any
// other index being sampled first (no hidden stream state).
func TestSamplerDeterministic(t *testing.T) {
	cat := soc.DefaultCatalog()
	a, err := NewSampler(cat, 7, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewSampler(cat, 7, 3)
	b.Device(9999) // perturb nothing: draws must not leak across indices
	for _, i := range []int{0, 1, 17, 4096, 9999} {
		if a.Device(i) != b.Device(i) {
			t.Fatalf("device %d diverged: %+v vs %+v", i, a.Device(i), b.Device(i))
		}
	}
	if a.Device(3) == a.Device(4) {
		t.Fatal("adjacent devices identical — jitter streams collapsed")
	}
	c, _ := NewSampler(cat, 8, 3)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Device(i) == c.Device(i) {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 devices identical across seeds", same)
	}
}

// TestSamplerEnvelopes: every jitter lands in its documented envelope
// and the weighted entry pick roughly follows the catalog weights.
func TestSamplerEnvelopes(t *testing.T) {
	cat := soc.DefaultCatalog()
	s, err := NewSampler(cat, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	counts := make([]int, len(cat))
	for i := 0; i < n; i++ {
		d := s.Device(i)
		counts[d.Entry]++
		sp := &cat[d.Entry].Spec
		if d.CPUBin < cpuBinLo || d.CPUBin >= cpuBinHi {
			t.Fatalf("device %d CPUBin %g out of envelope", i, d.CPUBin)
		}
		if d.AccelBin < accelBinLo || d.AccelBin >= accelBinHi {
			t.Fatalf("device %d AccelBin %g out of envelope", i, d.AccelBin)
		}
		if d.RPCMult < rpcJitterLo || d.RPCMult >= rpcJitterHi {
			t.Fatalf("device %d RPCMult %g out of envelope", i, d.RPCMult)
		}
		if d.TempC < sp.IdleTempC || d.TempC > sp.IdleTempC+tempFracMax*(sp.MaxTempC-sp.IdleTempC) {
			t.Fatalf("device %d TempC %g outside sampled thermal range", i, d.TempC)
		}
		if d.CPUDerate < 1 || d.CPUDerate > 1+thermalDerateMax {
			t.Fatalf("device %d CPUDerate %g", i, d.CPUDerate)
		}
		if d.Tier != sp.Tier() {
			t.Fatalf("device %d tier %v != spec tier %v", i, d.Tier, sp.Tier())
		}
		if d.Model < 0 || d.Model >= 2 {
			t.Fatalf("device %d model index %d", i, d.Model)
		}
	}
	total := cat.TotalWeight()
	for e, c := range counts {
		want := float64(n) * cat[e].Weight / total
		if got := float64(c); got < want*0.85 || got > want*1.15 {
			t.Fatalf("entry %d (%s): %d sampled, want ~%.0f",
				e, cat[e].Spec.Name, c, want)
		}
	}
}

// TestSamplerRejects pins the constructor's validation.
func TestSamplerRejects(t *testing.T) {
	if _, err := NewSampler(soc.Catalog{}, 1, 1); err == nil {
		t.Fatal("empty catalog accepted")
	}
	if _, err := NewSampler(soc.DefaultCatalog(), 1, 0); err == nil {
		t.Fatal("zero models accepted")
	}
}

// runReport executes a run and renders its report.
func runReport(t *testing.T, cfg Config) string {
	t.Helper()
	res, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestRunByteIdentical: the tentpole contract — the report (and JSONL)
// is byte-identical at any parallelism and any shard count.
func TestRunByteIdentical(t *testing.T) {
	base := Config{
		Devices:  600,
		Models:   testModels(t, "MobileNet 1.0 v1"),
		DType:    tensor.UInt8,
		Delegate: tflite.DelegateNNAPI,
		Seed:     11,
		Plans:    plan.New(), // one warm cache across the variants
	}
	want := ""
	for _, v := range []struct{ parallel, shards int }{
		{1, 1}, {1, 7}, {2, 13}, {8, 64}, {4, 600},
	} {
		cfg := base
		cfg.Parallel, cfg.Shards = v.parallel, v.shards
		got := runReport(t, cfg)
		if want == "" {
			want = got
			continue
		}
		if got != want {
			t.Fatalf("report diverged at parallel=%d shards=%d", v.parallel, v.shards)
		}
	}
	if !strings.Contains(want, "== tier entry ==") {
		t.Fatalf("report missing tier sections:\n%s", want)
	}
}

// TestRunJSONLByteIdentical covers the JSONL export the same way.
func TestRunJSONLByteIdentical(t *testing.T) {
	base := Config{
		Devices:  400,
		Models:   testModels(t, "MobileNet 1.0 v1", "SSD MobileNet v2"),
		DType:    tensor.UInt8,
		Delegate: tflite.DelegateNNAPI,
		Seed:     5,
		Plans:    plan.New(),
	}
	render := func(shards, parallel int) string {
		cfg := base
		cfg.Shards, cfg.Parallel = shards, parallel
		res, err := Run(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, res); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := render(1, 1), render(19, 8)
	if a != b {
		t.Fatal("JSONL diverged across shard/parallel variants")
	}
	if !strings.Contains(a, `"stage":"rpc"`) {
		t.Fatalf("JSONL missing stage rows:\n%s", a)
	}
}

// TestRunPropagatesAnatomyErrors: an unsupported (model, dtype,
// delegate) combination fails the run with a useful error instead of
// folding garbage.
func TestRunPropagatesAnatomyErrors(t *testing.T) {
	_, err := Run(nil, Config{
		Devices: 50,
		// SqueezeNet has no int8 support anywhere (Table I).
		Models:   testModels(t, "SqueezeNet"),
		DType:    tensor.UInt8,
		Delegate: tflite.DelegateCPU,
		Seed:     3,
		Plans:    plan.New(),
	})
	if err == nil {
		t.Fatal("unsupported combination did not fail")
	}
	if !strings.Contains(err.Error(), "SqueezeNet") {
		t.Fatalf("error does not name the model: %v", err)
	}
}

// TestRunValidates pins the config guard rails.
func TestRunValidates(t *testing.T) {
	if _, err := Run(nil, Config{Devices: 0, Models: testModels(t, "MobileNet 1.0 v1")}); err == nil {
		t.Fatal("zero devices accepted")
	}
	if _, err := Run(nil, Config{Devices: 10}); err == nil {
		t.Fatal("empty model list accepted")
	}
}

// TestShardAggMergeMatchesSingleShard: merging per-shard aggregates in
// submission order equals the single-shard aggregate, field for field —
// the exact-mergeability property the report's byte-identity rests on.
func TestShardAggMergeMatchesSingleShard(t *testing.T) {
	cfg := Config{
		Devices:  300,
		Models:   testModels(t, "MobileNet 1.0 v1"),
		DType:    tensor.Float32,
		Delegate: tflite.DelegateGPU,
		Seed:     9,
		Plans:    plan.New(),
	}
	cfg.Shards = 1
	one, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 23
	many, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(many.PerShard) != 23 {
		t.Fatalf("got %d shards", len(many.PerShard))
	}
	for tier := range one.Merged.Tiers {
		a, b := one.Merged.Tiers[tier], many.Merged.Tiers[tier]
		if a.Devices != b.Devices || a.Frames != b.Frames {
			t.Fatalf("tier %d counts diverged: %d/%d vs %d/%d",
				tier, a.Devices, a.Frames, b.Devices, b.Frames)
		}
		if a.Total.Count() != b.Total.Count() ||
			a.Total.Min() != b.Total.Min() || a.Total.Max() != b.Total.Max() ||
			a.Total.Quantile(0.99) != b.Total.Quantile(0.99) {
			t.Fatalf("tier %d latency histograms diverged", tier)
		}
		if *a.Reg != *b.Reg {
			t.Fatalf("tier %d regression accumulators diverged", tier)
		}
	}
}

// TestFoldMatchesRun: the exported Fold on a literal Anatomy (as the
// host benchmark's probe builds one) and a one-shard Run, which folds
// the cached float frames, agree to the bit on every tier — on
// accelerated and CPU-only anatomies alike.
func TestFoldMatchesRun(t *testing.T) {
	seen := map[bool]bool{}
	for _, c := range []struct {
		dt       tensor.DType
		delegate tflite.Delegate
	}{{tensor.UInt8, tflite.DelegateNNAPI}, {tensor.Float32, tflite.DelegateCPU}} {
		cfg := Config{
			Devices:  2000,
			Shards:   1,
			Parallel: 1,
			Models:   testModels(t, "MobileNet 1.0 v1", "SSD MobileNet v2"),
			DType:    c.dt,
			Delegate: c.delegate,
			Seed:     5,
			Plans:    plan.New(),
		}
		res, err := Run(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sampler, err := NewSampler(soc.DefaultCatalog(), cfg.Seed, len(cfg.Models))
		if err != nil {
			t.Fatal(err)
		}
		want := NewShardAgg()
		for i := 0; i < cfg.Devices; i++ {
			d := sampler.Device(i)
			cached := anatomyFor(cfg.Plans, &sampler.Catalog()[d.Entry].Spec,
				cfg.Models[d.Model], cfg.DType, cfg.Delegate, cfg.Seed)
			if cached.err != nil {
				t.Fatal(cached.err)
			}
			seen[cached.an.Accel] = true
			want.Tiers[d.Tier].Fold(d, &Anatomy{Frames: cached.an.Frames, Accel: cached.an.Accel})
		}
		for tier, got := range res.PerShard[0].Tiers {
			w := want.Tiers[tier]
			if got.Devices != w.Devices || got.Frames != w.Frames {
				t.Fatalf("%s tier %d: run folded %d/%d devices/frames, Fold %d/%d",
					c.delegate, tier, got.Devices, got.Frames, w.Devices, w.Frames)
			}
			hists := map[string][2]*stats.Histogram{"total": {got.Total, w.Total}, "tax": {got.Tax, w.Tax}}
			for s := range got.Stage {
				hists[reportStages[s].String()] = [2]*stats.Histogram{got.Stage[s], w.Stage[s]}
			}
			for name, h := range hists {
				a, b := h[0], h[1]
				if !slices.Equal(a.Counts(), b.Counts()) || a.Count() != b.Count() ||
					math.Float64bits(a.Sum()) != math.Float64bits(b.Sum()) ||
					math.Float64bits(a.Min()) != math.Float64bits(b.Min()) ||
					math.Float64bits(a.Max()) != math.Float64bits(b.Max()) {
					t.Fatalf("%s tier %d %s histogram: run %v sum %v [%v, %v], Fold %v sum %v [%v, %v]",
						c.delegate, tier, name, a.Counts(), a.Sum(), a.Min(), a.Max(),
						b.Counts(), b.Sum(), b.Min(), b.Max())
				}
			}
			if *got.Reg != *w.Reg {
				t.Fatalf("%s tier %d: regression accumulators diverged", c.delegate, tier)
			}
		}
	}
	if !seen[true] || !seen[false] {
		t.Fatalf("anatomies covered accel=%v only", seen)
	}
}
