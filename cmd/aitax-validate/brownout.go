package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/loadgen"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/serve"
	"aitax/internal/stats"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// The brownout gate's pinned storm: an overload burst that must climb
// the full degradation ladder, then a calm tail it must recover
// through. Mirrors the aitax-serve brownout golden so the two gates
// watch the same scenario from different layers.
const (
	brownoutLadderSpec = "tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15"
	brownoutRampSpec   = "300x300ms,4x3s"
	brownoutMixSpec    = "EfficientNet-Lite0=2,EfficientNet-Lite0=2:best-effort,EfficientNet-Lite0=1:interactive"
	brownoutSeed       = 11
	brownoutObjective  = 350 * time.Millisecond
)

// brownoutConfig assembles the gate's serving config and arrival
// schedule.
func brownoutConfig(p *aitax.SoC) (serve.Config, []loadgen.Arrival, error) {
	mobile, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		return serve.Config{}, nil, err
	}
	eff, err := models.ByName("EfficientNet-Lite0")
	if err != nil {
		return serve.Config{}, nil, err
	}
	lad, err := qos.ParseLadder(brownoutLadderSpec)
	if err != nil {
		return serve.Config{}, nil, err
	}
	cfg := serve.Config{
		Platform: p, DType: tensor.Float32, Delegate: tflite.DelegateNNAPI,
		Entry:   app.StagePre,
		Models:  []*models.Model{mobile, eff},
		Workers: 2, BatchWindow: 2 * time.Millisecond, MaxBatch: 4,
		QueueDepth: 64, DispatchCost: 200 * time.Microsecond, Seed: brownoutSeed,
		SLO: []obs.Objective{{Model: "EfficientNet-Lite0", Latency: brownoutObjective, Target: 0.95}},
		QoS: &serve.QoSPolicy{
			Ladder:        lad,
			Downshift:     map[string]string{"EfficientNet-Lite0": "MobileNet 1.0 v1"},
			SteerDelegate: tflite.DelegateGPU,
		},
	}
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return serve.Config{}, nil, err
	}
	phases, err := loadgen.ParseRamp(brownoutRampSpec)
	if err != nil {
		return serve.Config{}, nil, err
	}
	mix, err := loadgen.ParseMix(brownoutMixSpec)
	if err != nil {
		return serve.Config{}, nil, err
	}
	arrivals, err := loadgen.Spec{Seed: brownoutSeed, Phases: phases, Mix: mix}.Generate()
	if err != nil {
		return serve.Config{}, nil, err
	}
	return cfg, arrivals, nil
}

// classP99 is the nearest-rank p99 of served latencies in one QoS
// class.
func classP99(outcomes []serve.Outcome, cls qos.Class) time.Duration {
	var lats []time.Duration
	for _, o := range outcomes {
		if o.Class == cls && !o.Shed && !o.Rejected {
			lats = append(lats, o.Latency())
		}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return stats.NearestRank(lats, 0.99)
}

// brownoutRun is the graceful-degradation gate: the pinned storm must
// be byte-identical at any cost-table parallelism, the ladder must
// fully engage and recover, only best-effort traffic may be shed, and
// the controller must hold protected-class p99 inside the objective
// that the frozen (observe-only) baseline demonstrably violates.
func brownoutRun(p *aitax.SoC, parallel int, stdout, stderr io.Writer) int {
	cfg, arrivals, err := brownoutConfig(p)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "brownout gate: ladder %q, ramp %q, seed %d, platform %q\n\n",
		brownoutLadderSpec, brownoutRampSpec, brownoutSeed, p.Name)

	simulate := func(cfg serve.Config, parallelism int) (*serve.SimResult, string, error) {
		table, err := serve.BuildCostTable(context.Background(), cfg, parallelism, nil)
		if err != nil {
			return nil, "", err
		}
		res, err := serve.Simulate(cfg, table, arrivals, false)
		if err != nil {
			return nil, "", err
		}
		return res, res.Report(cfg, brownoutRampSpec), nil
	}

	res, wide, err := simulate(cfg, parallel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	_, seq, err := simulate(cfg, 1)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	obsCfg := cfg
	pol := *cfg.QoS
	pol.Observe = true
	obsCfg.QoS = &pol
	baseline, _, err := simulate(obsCfg, parallel)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if i := strings.Index(wide, "degradation anatomy"); i >= 0 {
		fmt.Fprintln(stdout, wide[i:])
	}

	failures := 0
	check := func(ok bool, format string, args ...any) {
		status := "PASS  "
		if !ok {
			status = "FAIL  "
			failures++
		}
		fmt.Fprintf(stdout, status+format+"\n", args...)
	}

	d := res.Degradation
	check(wide == seq, "report byte-identical at -parallel %d and sequential", parallel)
	check(d.FullyEngaged(), "ladder reached L%d", qos.NumRungs)
	check(d.Recovered(), "ladder recovered to L0 (%d transitions)", len(d.Transitions))
	check(d.Shed[qos.BestEffort] > 0, "best-effort traffic shed (%d)", d.Shed[qos.BestEffort])
	check(d.Shed[qos.Interactive] == 0 && d.Shed[qos.Standard] == 0,
		"protected classes never shed (%v)", d.Shed)
	check(d.Downshifted > 0, "requests downshifted (%d)", d.Downshifted)
	check(d.SteeredBatches > 0, "batches steered (%d)", d.SteeredBatches)

	actP99 := classP99(res.Outcomes, qos.Interactive)
	obsP99 := classP99(baseline.Outcomes, qos.Interactive)
	check(actP99 <= brownoutObjective,
		"interactive p99 %.1fms inside the %v objective under brownout", ms(actP99), brownoutObjective)
	check(obsP99 > brownoutObjective,
		"observe-only baseline violates it (interactive p99 %.1fms)", ms(obsP99))
	bd := baseline.Degradation
	check(bd.Observe && len(bd.Transitions) == 0 && bd.ShedTotal() == 0,
		"frozen controller took no action")

	if failures > 0 {
		fmt.Fprintf(stdout, "\nbrownout gate: %d checks failed\n", failures)
		return 1
	}
	fmt.Fprintln(stdout, "\nbrownout gate PASS")
	return 0
}

// ms renders a duration in milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
