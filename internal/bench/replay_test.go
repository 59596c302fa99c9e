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

// nopListener observes nothing; subscribing it keeps the CPU delegate's
// steady-state replay off.
type nopListener struct{}

func (nopListener) OnRun(*sched.Thread, *sched.Core, sim.Time, time.Duration)   {}
func (nopListener) OnMigrate(*sched.Thread, *sched.Core, *sched.Core, sim.Time) {}

// toolOutcome is everything a benchmark-tool run leaves observable.
type toolOutcome struct {
	samples    []core.StageTimes
	switches   int
	migrations int
	busy       []time.Duration
	now        sim.Time
}

// toolRun is benchToolRun on a stack it inspects afterwards; replayOff
// subscribes a no-op scheduler listener first. It also returns how many
// engine events the run scheduled.
func toolRun(t *testing.T, platform *soc.SoC, seed uint64, m *models.Model, dt tensor.DType,
	delegate tflite.Delegate, n int, appWrapper, replayOff bool) (toolOutcome, uint64) {
	t.Helper()
	rt := tflite.NewStack(clonePlatform(platform), seed)
	if replayOff {
		rt.Sch.Subscribe(nopListener{})
	}
	ip, err := rt.NewInterpreter(m, dt, tflite.Options{Delegate: delegate, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	bt := tflite.NewBenchTool(rt, ip)
	bt.AppWrapper = appWrapper
	var out toolOutcome
	if out.samples, err = bt.Measure(context.Background(), n); err != nil {
		t.Fatal(err)
	}
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
		if v.wrapper {
			name += "/app-wrapper"
		}
		on, onEvents := toolRun(t, cfg.Platform, cfg.Seed, v.m, v.dt, v.d, runs, v.wrapper, false)
		off, offEvents := toolRun(t, cfg.Platform, cfg.Seed, v.m, v.dt, v.d, runs, v.wrapper, true)
		if !reflect.DeepEqual(on, off) {
			t.Errorf("%s: replay changed the run\n on: %+v\noff: %+v", name, on, off)
		}
		if v.d == tflite.DelegateCPU && onEvents >= offEvents {
			t.Errorf("%s: replay saved no events (%d on, %d off); the comparison is vacuous", name, onEvents, offEvents)
		}
		if v.d == tflite.DelegateNNAPI {
			nnapiSaved += offEvents - onEvents
		}
		// The mirror above must stay what the experiments run.
		if prod, err := benchToolRun(cfg.Platform, cfg.Seed, v.m, v.dt, v.d, 4, runs, v.wrapper); err != nil ||
			!reflect.DeepEqual(prod, on.samples) {
			t.Fatalf("%s: toolRun no longer mirrors benchToolRun (err %v)", name, err)
		}
		if len(on.samples) != runs {
			t.Fatalf("%s: %d samples, want %d", name, len(on.samples), runs)
		}
		for i, s := range on.samples {
			checkConservation(t, name+" run", i, s)
		}
		samples += len(on.samples)
	}
	if nnapiSaved == 0 {
		t.Error("no NNAPI CPU partition was replayed; the NNAPI comparison is vacuous")
	}

	frames := 0
	for _, path := range []struct {
		d     tflite.Delegate
		nnapi bool
	}{{tflite.DelegateCPU, false}, {tflite.DelegateNNAPI, true}} {
		for _, v := range figureModels(path.nnapi) {
			name := variantName(v.M, v.DT) + "/" + path.d.String()
			sts, err := appRun(cfg.Platform, cfg.Seed, v.M, v.DT, path.d, runs, 0, 0)
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

// checkConservation checks the stage laws on one run in integer
// nanoseconds: the stages sum to Total, no stage is negative, and on a
// fault-free run the tax is exactly Total minus inference.
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
	if inf := st.Stage[core.StageInference]; st.Retry == 0 && st.Fallback == 0 && st.Tax() != st.Total-inf {
		t.Errorf("%s %d: tax %d ns, total-inference %d ns", name, i, st.Tax(), st.Total-inf)
	}
}
