package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"aitax/internal/qos"
	"aitax/internal/serve"
	"aitax/internal/stats"
)

// brownoutArgs is the brownout gate's pinned storm, as aitax serve
// flags: an overload burst that must climb the full degradation ladder,
// then a calm tail it must recover through. The serve brownout golden
// replays the same storm, so the two gates watch one scenario from
// different layers.
var brownoutArgs = []string{
	"-loadgen",
	"-models", "MobileNet 1.0 v1,EfficientNet-Lite0",
	"-slo", "EfficientNet-Lite0=350ms@95",
	"-qos", "tick=5ms,hold=6,short=2,long=4,enter=0.1/0.2/0.3,exit=0.04/0.08/0.15",
	"-downshift", "EfficientNet-Lite0=MobileNet 1.0 v1",
	"-mix", "EfficientNet-Lite0=2,EfficientNet-Lite0=2:best-effort,EfficientNet-Lite0=1:interactive",
	"-ramp", "300x300ms,4x3s",
	"-seed", "11",
	"-queue-depth", "64",
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
func brownoutRun(platform string, parallel int, stdout, stderr io.Writer) int {
	o, code := parseServe(append(append([]string{}, brownoutArgs...), "-platform", platform), stderr)
	if o == nil {
		return code
	}
	arrivals, err := o.arrivals()
	if err != nil {
		return fail(stderr, err)
	}
	cfg, objective := o.cfg, o.cfg.SLO[0].Latency
	fmt.Fprintf(stdout, "brownout gate: ladder %q, ramp %q, seed %d, platform %q\n\n",
		o.qos, o.ramp, o.seed, cfg.Platform.Name)

	simulate := func(cfg serve.Config, parallelism int) (*serve.SimResult, string, error) {
		table, err := serve.BuildCostTable(context.Background(), cfg, parallelism, nil)
		if err != nil {
			return nil, "", err
		}
		res, err := serve.Simulate(cfg, table, arrivals, false)
		if err != nil {
			return nil, "", err
		}
		return res, res.Report(cfg, o.ramp), nil
	}

	res, wide, err := simulate(cfg, parallel)
	if err != nil {
		return fail(stderr, err)
	}
	_, seq, err := simulate(cfg, 1)
	if err != nil {
		return fail(stderr, err)
	}
	obsCfg := cfg
	pol := *cfg.QoS
	pol.Observe = true
	obsCfg.QoS = &pol
	baseline, _, err := simulate(obsCfg, parallel)
	if err != nil {
		return fail(stderr, err)
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
	check(actP99 <= objective,
		"interactive p99 %.1fms inside the %v objective under brownout", ms(actP99), objective)
	check(obsP99 > objective,
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
