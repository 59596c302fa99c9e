package serve

import (
	"context"
	"testing"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/loadgen"
	"aitax/internal/obs"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// serveSimFixture is the host benchmark's serve-sim configuration (the
// aitax serve flag defaults, all=150ms@90, a default brownout ladder
// steering to the GPU, seed 1) on a ramp a tenth as long: about 4.4k
// arrivals below, near and above the executors' capacity.
func serveSimFixture(b *testing.B) (Config, *CostTable, []loadgen.Arrival) {
	b.Helper()
	p, err := soc.PlatformByName("Google Pixel 3")
	if err != nil {
		b.Fatal(err)
	}
	slo, err := obs.ParseObjectives("all=150ms@90")
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Platform: p, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI,
		Entry: taxcore.StagePre, Workers: 2, BatchWindow: 2 * time.Millisecond, MaxBatch: 4,
		QueueDepth: 16, DispatchCost: 200 * time.Microsecond, Seed: 1,
		SLO: slo, QoS: &QoSPolicy{SteerDelegate: tflite.DelegateGPU},
	}.Defaults()
	phases, err := loadgen.ParseRamp("20x60s,36x50s,60x24s")
	if err != nil {
		b.Fatal(err)
	}
	spec := loadgen.Spec{Seed: 1, Phases: phases}
	for _, m := range cfg.Models {
		spec.Mix = append(spec.Mix, loadgen.Share{Model: m.Name, Weight: 1})
	}
	arrivals, err := spec.Generate()
	if err != nil {
		b.Fatal(err)
	}
	table, err := BuildCostTable(context.Background(), cfg, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	return cfg, table, arrivals
}

// BenchmarkSimulate times the virtual-time serving core alone: the
// admission, batching and dispatch policy with its registry counters.
func BenchmarkSimulate(b *testing.B) {
	cfg, table, arrivals := serveSimFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, table, arrivals, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildSimObs times the replay of a finished simulation into
// the streaming recorder and the SLO monitor.
func BenchmarkBuildSimObs(b *testing.B) {
	cfg, table, arrivals := serveSimFixture(b)
	res, err := Simulate(cfg, table, arrivals, false)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildSimObs(cfg, res, cfg.ObsWindow, cfg.SLO)
	}
}
