package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/core"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// faultScenario is one (label, plan) row of the fault experiment.
type faultScenario struct {
	label string
	plan  faults.Plan
}

// faultRunStats is everything one faulted run reports back.
type faultRunStats struct {
	breakdown core.Breakdown
	initTime  time.Duration
	fellBack  bool
	injected  int
	frames    int
}

// FaultTolerance demonstrates the robustness side of the AI tax: the
// offload path the paper profiles (FastRPC, delegate bring-up, the
// shared DSP) can fail, and a production stack survives by retrying and
// by degrading to CPU execution — paying for survival with extra tax.
// Each row runs MobileNet v1 int8 on the Hexagon delegate under one
// deterministic fault plan: a clean baseline, a delegate-init failure
// that re-plans the whole model onto the CPU interpreter, flaky FastRPC
// invokes that stretch frames with retry backoff, and a thermal trip
// that kills the accelerator mid-run.
func FaultTolerance(cfg Config) *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:    "faults",
		Title: "Fault tolerance: MobileNet v1 int8 on Hexagon under injected offload failures",
		Headers: []string{"scenario", "init (ms)", "inference (ms)", "retry (ms)",
			"fallback (ms)", "total (ms)", "tax %", "faults", "on CPU"},
	}
	frames := cfg.Runs / 2
	if frames < 10 {
		frames = 10
	}

	run := func(plan faults.Plan) (faultRunStats, bool) {
		rt := tflite.NewStack(clonePlatform(cfg.Platform), cfg.Seed)
		inj, err := faults.New(plan.Resolved(cfg.Seed))
		if err != nil {
			return faultRunStats{}, false
		}
		rt.Faults = inj
		a, err := app.New(rt, app.Config{
			Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateHexagon, Streaming: true,
		})
		if err != nil {
			return faultRunStats{}, false
		}
		sts, err := a.Measure(context.Background(), warmupFrames, frames, 0, 0)
		if err != nil {
			return faultRunStats{}, false
		}
		return faultRunStats{
			breakdown: core.FromFrames(sts),
			initTime:  a.Interpreter().InitTime,
			fellBack:  a.Interpreter().FellBack(),
			injected:  inj.InjectedTotal(),
			frames:    len(sts),
		}, true
	}

	scenarios := []faultScenario{
		{"none (baseline)", faults.Plan{}},
		{"delegate-init failure", faults.Plan{DelegateInitFailRate: 1}},
		{"flaky FastRPC (retry)", faults.Plan{RPCTimeoutRate: 0.2, Deadline: 8 * time.Millisecond}},
		{"thermal trip mid-run", faults.Plan{ThermalTripAt: 150 * time.Millisecond}},
	}
	if cfg.Faults.Enabled() {
		scenarios = append(scenarios, faultScenario{"custom (-faults)", cfg.Faults})
	}

	stats := make(map[string]faultRunStats, len(scenarios))
	for _, sc := range scenarios {
		st, ok := run(sc.plan)
		if !ok {
			r.Notes = append(r.Notes, "setup failed")
			return r
		}
		stats[sc.label] = st
		onCPU := "no"
		if st.fellBack {
			onCPU = "yes"
		}
		b := st.breakdown
		r.AddRow(sc.label, msf(st.initTime), msf(b.Mean.Stage[core.StageInference]),
			msf(b.Mean.Retry), msf(b.Mean.Fallback), msf(b.Total()),
			fmt.Sprintf("%.1f", 100*b.TaxFraction()), st.injected, onCPU)
	}

	base, initFail, flaky, trip :=
		stats["none (baseline)"], stats["delegate-init failure"],
		stats["flaky FastRPC (retry)"], stats["thermal trip mid-run"]
	completed := base.frames == frames && initFail.frames == frames &&
		flaky.frames == frames && trip.frames == frames
	switch {
	case !completed:
		r.Notes = append(r.Notes, "shape check FAIL: a faulted run did not complete every frame")
	case base.injected != 0 || base.breakdown.Mean.Retry != 0 || base.breakdown.Mean.Fallback != 0:
		r.Notes = append(r.Notes, "shape check FAIL: the baseline must stay fault-free")
	case !initFail.fellBack || initFail.initTime <= base.initTime ||
		initFail.breakdown.Mean.Stage[core.StageInference] <= base.breakdown.Mean.Stage[core.StageInference]:
		r.Notes = append(r.Notes, "shape check FAIL: delegate-init failure must re-plan onto the slower CPU")
	case flaky.breakdown.Mean.Retry <= 0:
		r.Notes = append(r.Notes, "shape check FAIL: flaky FastRPC must surface retry backoff as tax")
	case !trip.fellBack:
		r.Notes = append(r.Notes, "shape check FAIL: a thermal trip must end in CPU fallback")
	default:
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: all %d frames completed under every plan; init failure re-planned onto CPU (tax %.1f%% vs %.1f%% baseline), retries added %.2f ms/frame, thermal trip degraded to CPU mid-run",
			frames, 100*initFail.breakdown.TaxFraction(), 100*base.breakdown.TaxFraction(),
			ms(flaky.breakdown.Mean.Retry)))
	}
	r.Notes = append(r.Notes,
		"recovery is tax: every retry and fallback millisecond lands outside model execution, exactly the time inference-only benchmarks never see (§III)")
	return r
}
