package bench

import (
	"fmt"
	"time"

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

// FaultTolerance demonstrates the robustness side of the AI tax: the
// offload path the paper profiles (FastRPC, delegate bring-up, the
// shared DSP) can fail, and a production stack survives by retrying and
// by degrading to CPU execution — paying for survival with extra tax.
// Each row runs MobileNet v1 int8 on the Hexagon delegate under one
// deterministic fault plan: a clean baseline, a delegate-init failure
// that re-plans the whole model onto the CPU interpreter, flaky FastRPC
// invokes that stretch frames with retry backoff, and a thermal trip
// that kills the accelerator mid-run.
func FaultTolerance(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	frames := max(cfg.Runs/2, 10)
	scenarios := []faultScenario{
		{"none (baseline)", faults.Plan{}},
		{"delegate-init failure", faults.Plan{DelegateInitFailRate: 1}},
		{"flaky FastRPC (retry)", faults.Plan{RPCTimeoutRate: 0.2, Deadline: 8 * time.Millisecond}},
		{"thermal trip mid-run", faults.Plan{ThermalTripAt: 150 * time.Millisecond}},
	}
	if cfg.Faults.Enabled() {
		scenarios = append(scenarios, faultScenario{"custom (-faults)", cfg.Faults})
	}
	samples := make([]*Sample, len(scenarios))
	for i, sc := range scenarios {
		samples[i] = p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed, DType: tensor.UInt8,
			Delegate: tflite.DelegateHexagon, N: frames, Faults: sc.plan}, m)
	}
	return func() *Result {
		r := &Result{
			ID:    "faults",
			Title: "Fault tolerance: MobileNet v1 int8 on Hexagon under injected offload failures",
			Headers: []string{"scenario", "init (ms)", "inference (ms)", "retry (ms)",
				"fallback (ms)", "total (ms)", "tax %", "faults", "on CPU"},
		}
		for i, sc := range scenarios {
			smp := samples[i]
			if smp.Err != nil {
				r.Notes = append(r.Notes, "setup failed")
				return r
			}
			onCPU := "no"
			if smp.FellBack {
				onCPU = "yes"
			}
			b := core.Breakdown{Mean: smp.Mean}
			r.AddRow(sc.label, msf(smp.InitTime), msf(smp.Mean.Stage[core.StageInference]),
				msf(smp.Mean.Retry), msf(smp.Mean.Fallback), msf(b.Total()),
				fmt.Sprintf("%.1f", 100*b.TaxFraction()), smp.Injected, onCPU)
		}

		base, initFail, flaky, trip := samples[0], samples[1], samples[2], samples[3]
		completed := len(base.Totals) == frames && len(initFail.Totals) == frames &&
			len(flaky.Totals) == frames && len(trip.Totals) == frames
		switch {
		case !completed:
			r.Notes = append(r.Notes, "shape check FAIL: a faulted run did not complete every frame")
		case base.Injected != 0 || base.Mean.Retry != 0 || base.Mean.Fallback != 0:
			r.Notes = append(r.Notes, "shape check FAIL: the baseline must stay fault-free")
		case !initFail.FellBack || initFail.InitTime <= base.InitTime ||
			initFail.Mean.Stage[core.StageInference] <= base.Mean.Stage[core.StageInference]:
			r.Notes = append(r.Notes, "shape check FAIL: delegate-init failure must re-plan onto the slower CPU")
		case flaky.Mean.Retry <= 0:
			r.Notes = append(r.Notes, "shape check FAIL: flaky FastRPC must surface retry backoff as tax")
		case !trip.FellBack:
			r.Notes = append(r.Notes, "shape check FAIL: a thermal trip must end in CPU fallback")
		default:
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check PASS: all %d frames completed under every plan; init failure re-planned onto CPU (tax %.1f%% vs %.1f%% baseline), retries added %.2f ms/frame, thermal trip degraded to CPU mid-run",
				frames, 100*core.Breakdown{Mean: initFail.Mean}.TaxFraction(), 100*core.Breakdown{Mean: base.Mean}.TaxFraction(),
				ms(flaky.Mean.Retry)))
		}
		r.Notes = append(r.Notes,
			"recovery is tax: every retry and fallback millisecond lands outside model execution, exactly the time inference-only benchmarks never see (§III)")
		return r
	}
}
