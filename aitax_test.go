package aitax_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"aitax"
)

func TestModelsFacade(t *testing.T) {
	if len(aitax.Models()) != 11 {
		t.Fatalf("models = %d", len(aitax.Models()))
	}
	m, err := aitax.ModelByName("MobileNet 1.0 v1")
	if err != nil || m.Task != "Classification" {
		t.Fatalf("lookup: %v %v", m, err)
	}
	if len(aitax.ModelNames()) != 11 {
		t.Fatal("names facade broken")
	}
}

func TestPlatformsFacade(t *testing.T) {
	if len(aitax.Platforms()) != 4 {
		t.Fatal("platforms facade broken")
	}
	p := aitax.Pixel3()
	if p.Chipset != "Snapdragon 845" {
		t.Fatalf("pixel3 = %s", p.Chipset)
	}
	if _, err := aitax.PlatformByName("Snapdragon 865"); err != nil {
		t.Fatal(err)
	}
}

func TestMeasureApp(t *testing.T) {
	b, err := aitax.MeasureApp(aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.UInt8,
		Delegate: aitax.DelegateNNAPI,
		Frames:   15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 15 {
		t.Fatalf("frames = %d", b.N)
	}
	if b.TaxFraction() <= 0.3 {
		t.Fatalf("tax fraction = %v, want the tax to be a major share", b.TaxFraction())
	}
	if !strings.Contains(b.Render(), "AI tax") {
		t.Fatal("render missing tax line")
	}
}

func TestMeasureAppErrors(t *testing.T) {
	if _, err := aitax.MeasureApp(aitax.AppOptions{Model: "nope"}); err == nil {
		t.Fatal("unknown model accepted")
	}
	if _, err := aitax.MeasureApp(aitax.AppOptions{
		Model: "AlexNet", DType: aitax.Float32, Delegate: aitax.DelegateNNAPI,
	}); err == nil {
		t.Fatal("Table-I-unsupported combo accepted")
	}
}

func TestMeasureBenchmark(t *testing.T) {
	samples, err := aitax.MeasureBenchmark(aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.Float32,
		Delegate: aitax.DelegateCPU,
		Frames:   10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("samples = %d", len(samples))
	}
}

func TestMeasureAppWithBackground(t *testing.T) {
	quiet, err := aitax.MeasureApp(aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
		Delegate: aitax.DelegateNNAPI, Frames: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := aitax.MeasureApp(aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
		Delegate: aitax.DelegateNNAPI, Frames: 10,
		BackgroundJobs: 3, BackgroundDelegate: aitax.DelegateHexagon,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mean.Stage[aitax.StageInference] <= quiet.Mean.Stage[aitax.StageInference] {
		t.Fatal("DSP tenancy must stretch inference")
	}
}

func TestTaxonomyFacade(t *testing.T) {
	if len(aitax.Taxonomy()) != 9 {
		t.Fatal("taxonomy facade broken")
	}
	if !strings.Contains(aitax.RenderTaxonomy(), "Algorithms") {
		t.Fatal("taxonomy render broken")
	}
}

func TestExperimentsFacade(t *testing.T) {
	if len(aitax.Experiments()) != 29 {
		t.Fatalf("experiments = %d", len(aitax.Experiments()))
	}
	e, err := aitax.ExperimentByID("table1")
	if err != nil {
		t.Fatal(err)
	}
	res := e.Run(aitax.ExperimentConfig{Runs: 5})
	if len(res.Rows) != 11 {
		t.Fatal("table1 via facade broken")
	}
}

func TestAppOptionsDefaults(t *testing.T) {
	d := aitax.AppOptions{}.Defaults()
	if d.Platform == nil || d.Seed != aitax.DefaultSeed || !d.SeedSet ||
		d.Frames != 50 || d.WarmupFrames != 2 {
		t.Fatalf("defaults = %+v", d)
	}
	// Seed 0 is requestable with SeedSet.
	z := aitax.AppOptions{Seed: 0, SeedSet: true}.Defaults()
	if z.Seed != 0 {
		t.Fatalf("explicit seed 0 coerced to %d", z.Seed)
	}
	// A non-zero seed counts as explicit without SeedSet.
	if s := (aitax.AppOptions{Seed: 7}).Defaults(); s.Seed != 7 {
		t.Fatalf("seed 7 rewritten to %d", s.Seed)
	}
	// Negative WarmupFrames means no warmup.
	if w := (aitax.AppOptions{WarmupFrames: -1}).Defaults(); w.WarmupFrames != 0 {
		t.Fatalf("WarmupFrames -1 -> %d, want 0", w.WarmupFrames)
	}
}

func TestSeedZeroRuns(t *testing.T) {
	b, err := aitax.MeasureApp(aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
		Delegate: aitax.DelegateNNAPI, Frames: 8, Seed: 0, SeedSet: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 8 {
		t.Fatalf("frames = %d", b.N)
	}
}

func TestMeasureBenchmarkRejectsIgnoredOptions(t *testing.T) {
	base := aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.Float32,
		Delegate: aitax.DelegateCPU, Frames: 5,
	}
	bg := base
	bg.BackgroundJobs = 2
	if _, err := aitax.MeasureBenchmark(bg); err == nil ||
		!strings.Contains(err.Error(), "BackgroundJobs") {
		t.Fatalf("BackgroundJobs silently dropped: %v", err)
	}
	wu := base
	wu.WarmupFrames = 3
	if _, err := aitax.MeasureBenchmark(wu); err == nil ||
		!strings.Contains(err.Error(), "WarmupFrames") {
		t.Fatalf("WarmupFrames silently dropped: %v", err)
	}
}

func TestMeasureAppRejectsStdLib(t *testing.T) {
	if _, err := aitax.MeasureApp(aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
		Delegate: aitax.DelegateNNAPI, Frames: 5, StdLib: aitax.LibStdCXX,
	}); err == nil || !strings.Contains(err.Error(), "StdLib") {
		t.Fatalf("StdLib silently dropped: %v", err)
	}
}

func TestMeasureAppCtxCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := aitax.MeasureAppCtx(ctx, aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
		Delegate: aitax.DelegateNNAPI, Frames: 5,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := aitax.MeasureBenchmarkCtx(ctx, aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.Float32,
		Delegate: aitax.DelegateCPU, Frames: 5,
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("benchmark err = %v, want context.Canceled", err)
	}
}

func TestLabFacade(t *testing.T) {
	l := &aitax.Lab{Parallelism: 4}
	jobs := []aitax.Job{
		{ID: "mobilenet", Run: func(ctx context.Context) (any, error) {
			b, err := aitax.MeasureAppCtx(ctx, aitax.AppOptions{
				Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
				Delegate: aitax.DelegateNNAPI, Frames: 6,
			})
			return b, err
		}},
		{ID: "boom", Run: func(ctx context.Context) (any, error) { panic("fail one") }},
	}
	rs := l.Run(context.Background(), jobs)
	if rs[0].Err != nil {
		t.Fatal(rs[0].Err)
	}
	if rs[0].Sim <= 0 {
		t.Fatalf("measurement did not report simulated time: %+v", rs[0])
	}
	b := rs[0].Value.(aitax.Breakdown)
	if b.N != 6 {
		t.Fatalf("breakdown frames = %d", b.N)
	}
	var pe *aitax.LabPanicError
	if !errors.As(rs[1].Err, &pe) {
		t.Fatalf("panic not isolated: %v", rs[1].Err)
	}
}

func TestRunAllExperimentsFacade(t *testing.T) {
	// A cheap smoke of the facade: table1/table2 are static, so run
	// just the first two experiments' worth of output through the full
	// parallel path by comparing against direct sequential runs.
	rs := aitax.RunAllExperiments(aitax.ExperimentConfig{Runs: 3}, 8)
	if len(rs) != len(aitax.Experiments()) {
		t.Fatalf("results = %d", len(rs))
	}
	for i, e := range aitax.Experiments() {
		if rs[i].ID != e.ID {
			t.Fatalf("result %d = %s, want %s", i, rs[i].ID, e.ID)
		}
	}
}

func TestDirectStackUse(t *testing.T) {
	rt := aitax.NewStack(aitax.Pixel3(), 7)
	m, _ := aitax.ModelByName("SSD MobileNet v2")
	ip, err := rt.NewInterpreter(m, aitax.UInt8, aitax.InterpreterOptions{Delegate: aitax.DelegateHexagon})
	if err != nil {
		t.Fatal(err)
	}
	ran := false
	ip.Init(func() {
		ip.Invoke(func(aitax.InvokeReport) { ran = true })
	})
	rt.Eng.Run()
	if !ran {
		t.Fatal("invoke did not run")
	}
}

func TestMeasureAppWithFaults(t *testing.T) {
	base := aitax.AppOptions{
		Model:    "MobileNet 1.0 v1",
		DType:    aitax.UInt8,
		Delegate: aitax.DelegateHexagon,
		Frames:   10,
	}
	clean, err := aitax.MeasureApp(base)
	if err != nil {
		t.Fatal(err)
	}
	// The zero plan is a no-op: same options, byte-identical render.
	again, err := aitax.MeasureApp(base)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Render() != again.Render() {
		t.Fatal("fault-free runs must stay byte-identical")
	}

	faulty := base
	// No warmup: the storm hits the very first inference, and discarding
	// warmup frames would hide the retry/fallback cost being asserted.
	faulty.WarmupFrames = -1
	faulty.Faults, err = aitax.ParseFaultPlan("timeout=1,deadline=20ms,attempts=2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := aitax.MeasureApp(faulty)
	if err != nil {
		t.Fatal(err)
	}
	if b.N != 10 {
		t.Fatalf("faulty run completed %d frames, want 10", b.N)
	}
	if b.Mean.Retry <= 0 || b.Mean.Fallback <= 0 {
		t.Fatalf("retry/fallback not surfaced: retry=%v fallback=%v", b.Mean.Retry, b.Mean.Fallback)
	}
	if !strings.Contains(b.Render(), "fault recovery") {
		t.Fatal("render missing the fault recovery line")
	}

	bad := base
	bad.Faults = aitax.FaultPlan{RPCErrorRate: 2}
	if _, err := aitax.MeasureApp(bad); err == nil {
		t.Fatal("out-of-range plan must be rejected")
	}
	if _, err := aitax.MeasureBenchmark(aitax.AppOptions{
		Model: base.Model, DType: base.DType, Delegate: base.Delegate,
		Frames: 5, Faults: bad.Faults,
	}); err == nil {
		t.Fatal("MeasureBenchmark must reject an invalid plan too")
	}
}

// Negative counts are errors at the library boundary, never panics deep
// in the simulation.
func TestNegativeCountsRejected(t *testing.T) {
	opts := aitax.AppOptions{
		Model: "MobileNet 1.0 v1", DType: aitax.UInt8,
		Delegate: aitax.DelegateNNAPI, Frames: -2,
	}
	fig5, err := aitax.ExperimentByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		call func() error
	}{
		{"MeasureApp", func() error { _, err := aitax.MeasureApp(opts); return err }},
		{"MeasureAppFrames", func() error { _, err := aitax.MeasureAppFrames(opts); return err }},
		{"MeasureAppTraced", func() error { _, err := aitax.MeasureAppTraced(opts); return err }},
		{"MeasureBenchmark", func() error { _, err := aitax.MeasureBenchmark(opts); return err }},
		{"Experiment.RunCtx", func() error {
			_, err := fig5.RunCtx(context.Background(), aitax.ExperimentConfig{Runs: -1})
			return err
		}},
	}
	for _, c := range cases {
		var err error
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("%s panicked on a negative count: %v", c.name, r)
				}
			}()
			err = c.call()
		}()
		if err == nil || !strings.Contains(err.Error(), "negative") {
			t.Errorf("%s: error %v, want a negative-count error", c.name, err)
		}
	}
	res := aitax.RunAllExperiments(aitax.ExperimentConfig{Runs: -1}, 2)
	for _, r := range res {
		if len(r.Notes) != 1 || !strings.Contains(r.Notes[0], "setup failed: bench: negative Runs") {
			t.Fatalf("%s: notes %q, want the negative-Runs setup failure", r.ID, r.Notes)
		}
	}
}
