package bench

import (
	"context"
	"reflect"
	"testing"
	"time"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// nopListener observes nothing; subscribing it turns the scheduler's
// host-time shortcuts off: steady-state replay and the CPU delegate's
// fast path.
type nopListener struct{}

func (nopListener) OnRun(*sched.Thread, *sched.Core, sim.Time, time.Duration)   {}
func (nopListener) OnMigrate(*sched.Thread, *sched.Core, *sched.Core, sim.Time) {}

// outcome is everything a measured Run leaves observable.
type outcome struct {
	samples    []core.StageTimes
	facts      Sample
	err        error
	switches   int
	migrations int
	busy       []time.Duration
	now        sim.Time
}

// inspect measures r, whose model m is, on the stack Run.frames builds
// and inspects the stack afterwards; shortcutsOff subscribes a no-op
// scheduler listener first. It also returns how many engine events the
// run scheduled.
func inspect(t *testing.T, r Run, m *models.Model, configured *soc.SoC, shortcutsOff bool) (outcome, uint64) {
	t.Helper()
	rt, err := r.Stack(r.platform(configured))
	if err != nil {
		t.Fatal(err)
	}
	if shortcutsOff {
		rt.Sch.Subscribe(nopListener{})
	}
	var out outcome
	out.samples, out.facts, out.err = r.MeasureOn(context.Background(), rt, m)
	out.now = rt.Eng.Now()
	out.switches, out.migrations = rt.Sch.Switches(), rt.Sch.Migrations()
	for _, c := range rt.Sch.Cores() {
		out.busy = append(out.busy, c.BusyTime())
	}
	return out, rt.Eng.Scheduled()
}

// TestReplayMatchesSimulationAndConserves runs every Fig. 3 variant on
// the CPU delegate (CLI and app wrapper) and every Fig. 4 variant on
// NNAPI through the benchmark tool twice, replay on and replay off, and
// requires identical samples and scheduler accounting. In the same loop
// it checks the stage conservation laws in integer nanoseconds, for the
// benchmark samples and for the application frames on both paths.
func TestReplayMatchesSimulationAndConserves(t *testing.T) {
	const runs = 30
	cfg := Config{Platform: soc.Pixel3(), Seed: 42, Runs: runs}
	type variant struct {
		m       *models.Model
		dt      tensor.DType
		d       tflite.Delegate
		wrapper bool
	}
	var variants []variant
	for _, v := range figureModels(false) {
		variants = append(variants, variant{v.M, v.DT, tflite.DelegateCPU, false}, variant{v.M, v.DT, tflite.DelegateCPU, true})
	}
	for _, v := range figureModels(true) {
		variants = append(variants, variant{v.M, v.DT, tflite.DelegateNNAPI, false})
	}
	samples := 0
	var nnapiSaved uint64
	for _, v := range variants {
		name := variantName(v.m, v.dt) + "/" + v.d.String()
		h := HarnessTool
		if v.wrapper {
			name += "/app-wrapper"
			h = HarnessWrapper
		}
		key := Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, Model: v.m.Name, DType: v.dt, Delegate: v.d, Threads: 4, N: runs, Harness: h}
		on, onEvents := inspect(t, key, v.m, cfg.Platform, false)
		off, offEvents := inspect(t, key, v.m, cfg.Platform, true)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: replay changed the run\n on: %+v\noff: %+v", name, on, off)
		}
		if sched.Shortcuts && v.d == tflite.DelegateCPU && onEvents >= offEvents {
			t.Errorf("%s: replay saved no events (%d on, %d off); the comparison is vacuous", name, onEvents, offEvents)
		}
		if v.d == tflite.DelegateNNAPI {
			nnapiSaved += offEvents - onEvents
		}
		if on.err != nil || len(on.samples) != runs {
			t.Fatalf("%s: %d samples (err %v), want %d", name, len(on.samples), on.err, runs)
		}
		for i, s := range on.samples {
			checkConservation(t, name+" run", i, s)
		}
		samples += len(on.samples)
	}
	if sched.Shortcuts && nnapiSaved == 0 {
		t.Error("no NNAPI CPU partition was replayed; the NNAPI comparison is vacuous")
	}

	frames := 0
	for _, path := range []struct {
		d     tflite.Delegate
		nnapi bool
	}{{tflite.DelegateCPU, false}, {tflite.DelegateNNAPI, true}} {
		for _, v := range figureModels(path.nnapi) {
			name := variantName(v.M, v.DT) + "/" + path.d.String()
			key := Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, Model: v.M.Name, DType: v.DT, Delegate: path.d, N: runs, Harness: HarnessApp, Warmup: warmupFrames}
			sts, _, err := key.frames(context.Background(), v.M, cfg.Platform)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, f := range sts {
				checkConservation(t, name+" frame", i, f)
			}
			frames += len(sts)
		}
	}
	t.Logf("replay-on == replay-off and conservation held on %d bench samples and %d app frames", samples, frames)
}

// TestShortcutsMatchSimulationOnEveryKey measures every key of the
// Pixel 3 and Snapdragon 855 HDK sweeps at seeds 1, 7 and 42 twice: as
// is, and with a no-op scheduler listener, which turns replay and the
// CPU fast path off. Both must give equal frames, facts and errors,
// scheduler accounting and final clock. Application keys are where the
// fast path runs: their camera and pre/post threads keep replay off.
func TestShortcutsMatchSimulationOnEveryKey(t *testing.T) {
	keys, appSaved := 0, uint64(0)
	for _, platform := range []string{"Google Pixel 3", "Snapdragon 855 HDK"} {
		p, err := soc.PlatformByName(platform)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []uint64{1, 7, 42} {
			cfg := Config{Platform: p, Seed: seed, SeedSet: true, Runs: 8}.Defaults()
			pl := planOf(cfg)
			for _, r := range pl.runs {
				m := pl.models[r.Model]
				on, onEvents := inspect(t, r, m, cfg.Platform, false)
				off, offEvents := inspect(t, r, m, cfg.Platform, true)
				if !reflect.DeepEqual(on, off) {
					t.Errorf("%s: the shortcuts changed the run\n on: %+v\noff: %+v", r, on, off)
				}
				if r.Harness == HarnessApp && onEvents < offEvents {
					appSaved += offEvents - onEvents
				}
				keys++
			}
		}
	}
	if sched.Shortcuts && appSaved == 0 {
		t.Error("the shortcuts saved no events on an application key; the comparison is vacuous")
	}
	t.Logf("%d keys equal with the shortcuts on and off; %d events saved on application keys", keys, appSaved)
}

// checkConservation checks the stage laws on one run in integer
// nanoseconds: the stages sum to Total, no stage is negative, fault
// recovery (retry and fallback) is non-negative and fits inside the
// inference stage, and on a fault-free run the tax is exactly Total
// minus inference.
func checkConservation(t *testing.T, name string, i int, st core.StageTimes) {
	t.Helper()
	var sum time.Duration
	for s, d := range st.Stage {
		if d < 0 {
			t.Errorf("%s %d: %v stage is negative (%d ns)", name, i, core.Stage(s), d)
		}
		sum += d
	}
	if sum != st.Total {
		t.Errorf("%s %d: stages sum to %d ns, total %d ns", name, i, sum, st.Total)
	}
	inf := st.Stage[core.StageInference]
	if st.Retry < 0 || st.Fallback < 0 || st.Retry+st.Fallback > inf {
		t.Errorf("%s %d: retry %d ns and fallback %d ns must be non-negative and fit in inference %d ns", name, i, st.Retry, st.Fallback, inf)
	}
	if st.Retry == 0 && st.Fallback == 0 && st.Tax() != st.Total-inf {
		t.Errorf("%s %d: tax %d ns, total-inference %d ns", name, i, st.Tax(), st.Total-inf)
	}
}
