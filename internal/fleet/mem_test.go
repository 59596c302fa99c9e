package fleet

import (
	"runtime"
	"testing"

	"aitax/internal/plan"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// heapAlloc forces a full collection and reads live heap bytes.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFleetMemoryFlatAt10k is the flat-memory proof: once the anatomy
// cache is warm, a 10,000-device run retains O(shards × tiers) — the
// live heap may not grow by more than a fixed budget however many
// devices stream through. A per-device leak of even one small struct
// (48 B × 10k ≈ 480 KB) blows the budget.
func TestFleetMemoryFlatAt10k(t *testing.T) {
	cfg := Config{
		Devices:  10000,
		Shards:   32,
		Parallel: 1,
		Models:   testModels(t, "MobileNet 1.0 v1"),
		DType:    tensor.UInt8,
		Delegate: tflite.DelegateNNAPI,
		Seed:     21,
		Plans:    plan.New(),
	}
	// Warm run: anatomy measurement simulations fill cfg.Plans.
	if _, err := Run(nil, cfg); err != nil {
		t.Fatal(err)
	}

	before := heapAlloc()
	res, err := Run(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after := heapAlloc()

	if res.Merged.All().Devices != 10000 {
		t.Fatalf("folded %d devices", res.Merged.All().Devices)
	}
	// Budget: the retained result itself is O(shards × tiers) histograms
	// (~33 shards × 3 tiers × 8 histograms × ~300 B of buckets ≈ 300 KB)
	// plus GC noise. 2 MB is an order of magnitude of slack over that
	// and far below any O(devices) retention.
	const budget = 2 << 20
	growth := int64(after) - int64(before)
	if growth > budget {
		t.Fatalf("heap grew %d bytes across a warm 10k-device run (budget %d): per-device state is being retained", growth, budget)
	}
	runtime.KeepAlive(res)
}

// BenchmarkFleetSample: fabricating one device — the sampler must stay
// a stack-only value computation (0 allocs/op).
func BenchmarkFleetSample(b *testing.B) {
	s, err := NewSampler(soc.DefaultCatalog(), 42, 3)
	if err != nil {
		b.Fatal(err)
	}
	var sink Device
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = s.Device(i)
	}
	_ = sink
}

// BenchmarkFleetShard: the steady per-device loop — sample, resolve the
// warm anatomy, fold into the tier aggregate. This is the path a
// 10k-device run spends its time in once anatomies are cached; the
// alloc gate pins it at 0 allocs/op.
func BenchmarkFleetShard(b *testing.B) {
	mix := testModels(b, "MobileNet 1.0 v1", "SSD MobileNet v2", "EfficientNet-Lite0")
	cache := plan.New()
	sampler, err := NewSampler(soc.DefaultCatalog(), 42, len(mix))
	if err != nil {
		b.Fatal(err)
	}
	// Warm every (entry, model) anatomy outside the timed loop.
	anats := make([]*anatomyResult, len(sampler.Catalog())*len(mix))
	for e := range sampler.Catalog() {
		for mi, m := range mix {
			res := anatomyFor(cache, &sampler.Catalog()[e].Spec, m,
				tensor.UInt8, tflite.DelegateNNAPI, 42)
			if res.err != nil {
				b.Fatal(res.err)
			}
			anats[e*len(mix)+mi] = res
		}
	}
	agg := NewShardAgg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := sampler.Device(i)
		agg.Tiers[d.Tier].fold(&d, &anats[d.Entry*len(mix)+d.Model].fold)
	}
}
