package fleet

import (
	"context"
	"math"
	"testing"
	"time"

	"aitax/internal/app"
	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// TestAnatomyGridConservation checks every base anatomy of fleet's
// default configuration (NNAPI, int8, seed 42): over every catalog entry
// and every model with NNAPI int8 support, each frame's stages sum to its
// Total, no stage is negative, and each frame's RPC is the FastRPC time
// its inference stage recorded in spans — zero on every frame of a pair
// whose plan never reaches the DSP. A Table-II entry's anatomy equals an
// app.Measure on the Table-II platform field for field, and folding any
// anatomy on a unit device (no jitter) keeps the frame total and stage
// shares that add up to 100%.
func TestAnatomyGridConservation(t *testing.T) {
	const seed = 42
	unit := Device{CPUBin: 1, AccelBin: 1, RPCMult: 1, CPUDerate: 1, Perf: 1}
	tableII, crossed := 0, 0
	for _, e := range soc.DefaultCatalog() {
		for _, m := range models.All() {
			if !m.Support.NNAPIInt8 {
				continue
			}
			an, err := measureAnatomy(e.Spec, m, tensor.UInt8, tflite.DelegateNNAPI, seed)
			if err != nil {
				t.Fatalf("%s / %s: %v", e.Spec.Name, m.Name, err)
			}
			rpc := tracedFrameRPC(t, e.Spec, m, an, seed)
			for i, f := range an.Frames {
				var sum time.Duration
				for s, d := range f.Stage {
					if d < 0 {
						t.Errorf("%s / %s frame %d: %v stage is %v", e.Spec.Name, m.Name, i, core.Stage(s), d)
					}
					sum += d
				}
				if sum != f.Total {
					t.Errorf("%s / %s frame %d: stages sum to %v, Total %v", e.Spec.Name, m.Name, i, sum, f.Total)
				}
				if f.RPC != rpc[i] {
					t.Errorf("%s / %s frame %d: rpc %v, FastRPC spans %v", e.Spec.Name, m.Name, i, f.RPC, rpc[i])
				}
				if !an.Accel && f.RPC != 0 {
					t.Errorf("%s / %s frame %d: rpc %v on a plan that never reaches the DSP", e.Spec.Name, m.Name, i, f.RPC)
				}
				if f.RPC > 0 {
					crossed++
				}
				checkUnitFold(t, unit, an, i)
			}
			if p, err := soc.PlatformByName(e.Spec.Name); err == nil {
				checkTableII(t, p, m, an, seed)
				tableII++
			}
		}
	}
	if tableII == 0 {
		t.Fatal("no catalog entry names a Table-II platform")
	}
	if crossed == 0 {
		t.Fatal("no frame of the grid crossed FastRPC")
	}
}

// checkUnitFold folds frame i of an, repeated, on a jitter-free device:
// the frame total is the anatomy's Total and the stage shares sum to 100.
func checkUnitFold(t *testing.T, unit Device, an *Anatomy, i int) {
	t.Helper()
	one := &Anatomy{Accel: an.Accel}
	for j := range one.Frames {
		one.Frames[j] = an.Frames[i]
	}
	agg := NewTierAgg()
	agg.Fold(unit, one)
	want := msf(an.Frames[i].Total)
	if got := agg.Total.Max(); math.Abs(got-want) > 1e-9 || agg.Total.Min() != got {
		t.Errorf("unit fold of frame %d: total [%g, %g] ms, want %g", i, agg.Total.Min(), got, want)
	}
	shares := 0.0
	for _, h := range agg.Stage {
		shares += h.Max()
	}
	if math.Abs(shares-100) > 1e-9 {
		t.Errorf("unit fold of frame %d: stage shares sum to %g%%", i, shares)
	}
}

// checkTableII measures m on the Table-II platform p the way
// measureAnatomy does and requires the same frames.
func checkTableII(t *testing.T, p *soc.SoC, m *models.Model, an *Anatomy, seed uint64) {
	t.Helper()
	a, err := app.New(tflite.NewStack(p, seed), app.Config{Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := a.Measure(context.Background(), anatomyWarmup, anatomySteady, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range an.Frames {
		if f != sts[i] {
			t.Errorf("%s / %s frame %d: fleet anatomy %+v, app.Measure %+v", p.Name, m.Name, i, f, sts[i])
		}
	}
}

// tracedFrameRPC reruns measureAnatomy's simulation with a tracer and
// prices each steady frame's FastRPC calls from their spans alone: the
// session-setup spans plus each call's rpc-down start to rpc-up end,
// less its DSP hold, over the calls begun inside the frame's inference
// span. The rerun must give an's frames: tracing changes no virtual
// time.
func tracedFrameRPC(t *testing.T, sp soc.Spec, m *models.Model, an *Anatomy, seed uint64) [anatomySteady]time.Duration {
	t.Helper()
	platform, err := sp.Build()
	if err != nil {
		t.Fatal(err)
	}
	rt := tflite.NewStack(platform, seed)
	rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
	a, err := app.New(rt, app.Config{Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI, Streaming: true})
	if err != nil {
		t.Fatal(err)
	}
	sts, err := a.Measure(context.Background(), anatomyWarmup, anatomySteady, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range an.Frames {
		if f != sts[i] {
			t.Fatalf("%s / %s frame %d: traced rerun %+v, anatomy %+v", sp.Name, m.Name, i, sts[i], f)
		}
	}
	var infers []telemetry.Span
	spans := rt.Tracer.Spans()
	for _, s := range spans {
		if s.Name == core.StageInference.String() && s.Component == "app" {
			infers = append(infers, s)
		}
	}
	if len(infers) != anatomyWarmup+anatomySteady {
		t.Fatalf("%s / %s: %d inference spans", sp.Name, m.Name, len(infers))
	}
	var rpc [anatomySteady]time.Duration
	for i := range rpc {
		inf := infers[anatomyWarmup+i]
		var down sim.Time
		for _, s := range spans {
			if s.Component != "fastrpc" || s.Start < inf.Start || s.Start > inf.End {
				continue
			}
			switch {
			case s.Name == "rpc-setup":
				rpc[i] += s.Duration()
			case s.Name == "rpc-down":
				down = s.Start
			case s.Name == "rpc-up":
				// Calls on one stack run one at a time, so each
				// rpc-up closes the latest rpc-down.
				rpc[i] += s.End.Sub(down)
			case s.Track == telemetry.TrackDSP:
				rpc[i] -= s.Duration()
			}
		}
	}
	return rpc
}
