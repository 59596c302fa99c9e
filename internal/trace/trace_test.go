package trace

import (
	"strings"
	"testing"
	"time"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
)

func TestProfilerRecordsCoreActivity(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := NewProfiler(eng, time.Millisecond)
	p.Attach(sch)
	sch.Spawn("t", sched.BigOnly).Exec(10*time.Millisecond, nil)
	eng.Run()
	u := p.CoreUtilization(0)
	busy := 0.0
	for _, v := range u {
		busy += v
	}
	if busy < 9 || busy > 11 {
		t.Fatalf("core0 busy buckets = %v, want ~10", busy)
	}
	// Other big cores idle.
	for _, v := range p.CoreUtilization(1) {
		if v > 0 {
			t.Fatal("idle core shows activity")
		}
	}
}

func TestProfilerTracksMigrations(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := NewProfiler(eng, time.Millisecond)
	p.Attach(sch)
	sch.SpawnMigratory("m", nil).Exec(40*time.Millisecond, nil)
	eng.Run()
	if p.Migrations() == 0 {
		t.Fatal("migratory thread produced no migration events")
	}
	if p.Migrations() != sch.Migrations() {
		t.Fatalf("profiler migrations %d != scheduler %d", p.Migrations(), sch.Migrations())
	}
}

func TestResourceSampling(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := NewProfiler(eng, time.Millisecond)
	p.Attach(sch)
	dsp := sim.NewResource(eng, 1)
	p.TrackResource("cdsp", dsp)
	p.StartSampling(20 * time.Millisecond)
	eng.After(2*time.Millisecond, func() {
		dsp.Acquire(10*time.Millisecond, nil)
	})
	eng.Run()
	busy := 0.0
	for _, v := range p.resources[0].samples {
		busy += v
	}
	if busy < 5 {
		t.Fatalf("dsp samples show %v busy buckets, want ~10", busy)
	}
}

func TestRenderTimeline(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := NewProfiler(eng, time.Millisecond)
	p.Attach(sch)
	for i := 0; i < 4; i++ {
		sch.Spawn("w", sched.BigOnly).Exec(20*time.Millisecond, nil)
	}
	eng.Run()
	out := p.Render()
	if !strings.Contains(out, "cpu0") || !strings.Contains(out, "migr") {
		t.Fatalf("render missing rows:\n%s", out)
	}
	// Busy cores must show solid utilization glyphs.
	if !strings.Contains(out, "#") {
		t.Fatalf("render shows no full-utilization glyphs:\n%s", out)
	}
}

func TestRenderCapsColumns(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := NewProfiler(eng, 100*time.Microsecond)
	p.Attach(sch)
	sch.Spawn("t", sched.BigOnly).Exec(200*time.Millisecond, nil)
	eng.Run()
	for _, line := range strings.Split(p.Render(), "\n") {
		if len(line) > 140 {
			t.Fatalf("render line too wide (%d)", len(line))
		}
	}
}

func TestInstrumentAddsProbeOverheadOnDSP(t *testing.T) {
	// §III-D: 4-7% inference increase with hardware acceleration.
	m, _ := models.ByName("MobileNet 1.0 v1")
	run := func(instr bool) time.Duration {
		eng := sim.NewEngine()
		p := soc.Pixel3()
		dspRes := sim.NewResource(eng, 1)
		ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
		var target driver.Target = driver.NewDSPTarget("dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
		if instr {
			target = Instrument(target, eng, DefaultProbeOverhead, nil, nil)
		}
		var warm time.Duration
		target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(driver.Result) {
			s := eng.Now()
			target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(driver.Result) {
				warm = eng.Now().Sub(s)
			})
		})
		eng.Run()
		return warm
	}
	plain, probed := run(false), run(true)
	inc := float64(probed-plain) / float64(plain)
	if inc < 0.02 || inc > 0.08 {
		t.Fatalf("probe effect = %.1f%%, want ~4-7%% of compute", inc*100)
	}
}

func TestInstrumentLeavesCPUUntouched(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := soc.Pixel3()
	cpu := driver.NewCPUTarget("cpu", sch, &p.Big, 4)
	if Instrument(cpu, eng, DefaultProbeOverhead, nil, nil) != driver.Target(cpu) {
		t.Fatal("CPU target must pass through uninstrumented")
	}
}

func TestInstrumentedTargetDelegatesSupport(t *testing.T) {
	eng := sim.NewEngine()
	p := soc.Pixel3()
	dspRes := sim.NewResource(eng, 1)
	ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
	inner := driver.NewDSPTarget("dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
	w := Instrument(inner, eng, DefaultProbeOverhead, nil, nil)
	if w.Kind() != soc.DSP {
		t.Fatal("kind must pass through")
	}
	if !strings.Contains(w.Name(), "probe") {
		t.Fatal("instrumented name must be marked")
	}
	m, _ := models.ByName("MobileNet 1.0 v1")
	for _, op := range m.Graph.Ops() {
		if w.Supports(op, tensor.UInt8) != inner.Supports(op, tensor.UInt8) {
			t.Fatal("support matrix must pass through")
		}
	}
}

func TestTrackDerived(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := NewProfiler(eng, time.Millisecond)
	p.Attach(sch)
	level := 0.0
	p.TrackDerived("axi", func() float64 { return level })
	p.StartSampling(10 * time.Millisecond)
	eng.After(5*time.Millisecond, func() { level = 0.8 })
	eng.Run()
	samples := p.resources[0].samples
	if samples[0] != 0 {
		t.Fatal("initial gauge sample wrong")
	}
	high := 0
	for _, s := range samples {
		if s > 0.5 {
			high++
		}
	}
	if high == 0 {
		t.Fatal("gauge change not observed")
	}
	if !strings.Contains(p.Render(), "axi") {
		t.Fatal("derived row missing from render")
	}
}

func TestSampleGuardsZeroCapacity(t *testing.T) {
	// A zero-value resource (capacity 0) or a nil one must sample as
	// idle, not divide by zero into NaN.
	for _, tr := range []*trackedResource{
		{name: "zero", res: &sim.Resource{}},
		{name: "nil"},
	} {
		if got := tr.sample(); got != 0 {
			t.Fatalf("%s-capacity sample = %v, want 0", tr.name, got)
		}
	}
}

func TestInstrumentOverheadConfigurable(t *testing.T) {
	// The probe effect must sweep the paper's 4-7% range.
	m, _ := models.ByName("MobileNet 1.0 v1")
	run := func(overhead float64) time.Duration {
		eng := sim.NewEngine()
		p := soc.Pixel3()
		dspRes := sim.NewResource(eng, 1)
		ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
		var target driver.Target = driver.NewDSPTarget("dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
		target = Instrument(target, eng, overhead, nil, nil)
		var warm time.Duration
		target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(driver.Result) {
			s := eng.Now()
			target.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, func(driver.Result) {
				warm = eng.Now().Sub(s)
			})
		})
		eng.Run()
		return warm
	}
	plain := run(0)
	low := float64(run(0.04)-plain) / float64(plain)
	high := float64(run(0.07)-plain) / float64(plain)
	if low < 0.02 || low > 0.05 {
		t.Fatalf("4%% probe produced %.1f%% increase", low*100)
	}
	if high <= low || high > 0.08 {
		t.Fatalf("7%% probe produced %.1f%% increase (low=%.1f%%)", high*100, low*100)
	}
}

func TestInstrumentOverheadCPUAlwaysUnwrapped(t *testing.T) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := soc.Pixel3()
	cpu := driver.NewCPUTarget("cpu", sch, &p.Big, 4)
	for _, ov := range []float64{0.04, 0.055, 0.07, 0.25} {
		if Instrument(cpu, eng, ov, nil, nil) != driver.Target(cpu) {
			t.Fatalf("CPU target wrapped at overhead %v", ov)
		}
	}
	// Non-positive overhead disables the probe even on accelerators.
	dspRes := sim.NewResource(eng, 1)
	ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
	dsp := driver.NewDSPTarget("dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
	if Instrument(dsp, eng, 0, nil, nil) != driver.Target(dsp) {
		t.Fatal("zero overhead must pass through unwrapped")
	}
}

func TestInstrumentedTargetRecordsTelemetry(t *testing.T) {
	m, _ := models.ByName("MobileNet 1.0 v1")
	eng := sim.NewEngine()
	p := soc.Pixel3()
	dspRes := sim.NewResource(eng, 1)
	ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
	inner := driver.NewDSPTarget("dsp", &p.DSP, ch, 0.95, driver.SNPESupports)
	w := Instrument(inner, eng, 0.055, telemetry.NewTracer(eng.Now), telemetry.NewRegistry()).(*InstrumentedTarget)
	w.Execute(m.Graph.Ops(), nil, tensor.UInt8, nil, nil)
	eng.Run()
	if w.Metrics.Count("aitax_probe_overhead_ms") != 1 {
		t.Fatal("probe overhead not recorded in metrics")
	}
	spans := w.Tracer.Spans()
	if len(spans) != 1 || spans[0].Name != "probe" || spans[0].Duration() <= 0 {
		t.Fatalf("probe span missing or empty: %+v", spans)
	}
}
