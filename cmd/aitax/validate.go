package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"

	"aitax"
)

// runValidate is aitax validate: it runs every experiment and reports
// the status of each embedded shape check against the paper — a
// CI-style gate for the reproduction ("did the Fig. 5 cliff regress?")
// without running the full Go test suite. Experiments run concurrently on a worker pool
// (-parallel, default GOMAXPROCS); the report is always in paper order.
//
// With -chaos it instead runs the fault-injection gate: one model per
// execution target under a fixed fault plan, once on the worker pool
// and once strictly sequentially, and fails unless the two reports are
// byte-identical — proving the injected faults, retries and CPU
// fallbacks are deterministic at any parallelism (see docs/FAULTS.md).
//
// With -brownout it runs the graceful-degradation gate instead: a
// pinned overload storm against the serving simulator with the QoS
// brownout controller enabled and again with the controller frozen,
// failing unless the ladder fully engages and recovers, only
// best-effort traffic is shed, the report is byte-identical at any
// parallelism, and the controller demonstrably holds the interactive
// p99 inside an objective the frozen baseline violates (see
// docs/QOS.md).
//
//	aitax validate            # exit 0 iff every shape check passes
//	aitax validate -runs 100  # higher-precision run
//	aitax validate -parallel 1  # strictly sequential
//	aitax validate -chaos     # deterministic fault-injection gate
//	aitax validate -brownout  # graceful-degradation gate
func runValidate(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("validate", stderr)
	runs := fs.Int("runs", 24, "iterations per configuration")
	run := bindPlatform(fs)
	parallel := fs.Int("parallel", runtime.GOMAXPROCS(0),
		"worker-pool size; the report is identical at any value")
	chaos := fs.Bool("chaos", false,
		"run the fault-injection gate instead of the shape checks")
	brownout := fs.Bool("brownout", false,
		"run the graceful-degradation gate instead of the shape checks")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	p, err := run.soc()
	if err != nil {
		return fail(stderr, err)
	}
	if *chaos && *brownout {
		fmt.Fprintln(stderr, "aitax validate: -chaos and -brownout are separate gates; pick one")
		return 2
	}
	if *chaos {
		return chaosRun(p, *run.seed, *parallel, stdout, stderr)
	}
	if *brownout {
		return brownoutRun(*run.platform, *parallel, stdout, stderr)
	}
	cfg := aitax.ExperimentConfig{Platform: p, Seed: *run.seed, SeedSet: true, Runs: *runs}

	// A panicking experiment comes back as an error Result whose note
	// carries "setup failed", so it is counted as a FAIL below rather
	// than crashing the gate.
	results := aitax.RunAllExperiments(cfg, *parallel)

	failures := 0
	checks := 0
	for i, e := range aitax.Experiments() {
		res := results[i]
		status := "ok    " // experiments without an explicit check still ran
		var failing []string
		for _, n := range res.Notes {
			if strings.Contains(n, "shape check PASS") {
				checks++
				status = "PASS  "
			}
			if strings.Contains(n, "FAIL") || strings.Contains(n, "setup failed") {
				checks++
				failures++
				status = "FAIL  "
				failing = append(failing, n)
			}
		}
		fmt.Fprintf(stdout, "%s %-20s %s\n", status, e.ID, e.Title)
		for _, f := range failing {
			fmt.Fprintf(stdout, "        %s\n", f)
		}
	}
	fmt.Fprintf(stdout, "\n%d experiments, %d explicit shape checks, %d failures\n",
		len(aitax.Experiments()), checks, failures)
	if failures > 0 {
		return 1
	}
	return 0
}

// chaosPlanSpec is the gate's fixed fault plan: flaky and stalling
// FastRPC with tight deadlines, then a thermal trip that kills the
// accelerator mid-run, under a pinned fault seed so the gate exercises
// one reproducible storm — retries, driver stalls AND the permanent CPU
// fallback, all in a single run.
const chaosPlanSpec = "rpc=0.15,timeout=0.1,deadline=10ms,stall=0.25,trip=300ms,seed=7"

// chaosTargets pins one model per execution target: fp32 on the CPU and
// GPU paths, the quantized offload paths for Hexagon and NNAPI.
var chaosTargets = []struct {
	label    string
	dtype    aitax.DType
	delegate aitax.Delegate
}{
	{"cpu", aitax.Float32, aitax.DelegateCPU},
	{"gpu", aitax.Float32, aitax.DelegateGPU},
	{"hexagon", aitax.UInt8, aitax.DelegateHexagon},
	{"nnapi", aitax.UInt8, aitax.DelegateNNAPI},
}

// chaosRun measures every chaos target under the fixed plan on a
// parallel-wide lab and again sequentially, writes the (shared) report,
// and fails on any divergence — the determinism contract of the fault
// subsystem, checked end to end.
func chaosRun(p *aitax.SoC, seed uint64, parallel int, stdout, stderr io.Writer) int {
	plan, err := aitax.ParseFaultPlan(chaosPlanSpec)
	if err != nil {
		return fail(stderr, err)
	}
	measure := func(parallelism int) ([]string, error) {
		jobs := make([]aitax.Job, len(chaosTargets))
		for i, tgt := range chaosTargets {
			tgt := tgt
			jobs[i] = aitax.Job{
				ID: tgt.label,
				Run: func(ctx context.Context) (any, error) {
					b, err := aitax.MeasureAppCtx(ctx, aitax.AppOptions{
						Model: "MobileNet 1.0 v1", DType: tgt.dtype, Delegate: tgt.delegate,
						Frames: 12, Platform: p, Seed: seed, SeedSet: true, Faults: plan,
					})
					if err != nil {
						return nil, err
					}
					return fmt.Sprintf("target %s: tax %.2f ms (%.1f%%)\n%s",
						tgt.label, float64(b.Tax().Microseconds())/1000,
						100*b.TaxFraction(), b.Render()), nil
				},
			}
		}
		l := &aitax.Lab{Parallelism: parallelism}
		out := make([]string, 0, len(jobs))
		for _, r := range l.Run(context.Background(), jobs) {
			if r.Err != nil {
				return nil, fmt.Errorf("%s: %w", r.ID, r.Err)
			}
			out = append(out, r.Value.(string))
		}
		return out, nil
	}

	fmt.Fprintf(stdout, "chaos gate: plan %q, seed %d, platform %q\n\n", chaosPlanSpec, seed, p.Name)
	wide, err := measure(parallel)
	if err != nil {
		return fail(stderr, err)
	}
	seq, err := measure(1)
	if err != nil {
		return fail(stderr, err)
	}
	failures := 0
	for i, tgt := range chaosTargets {
		fmt.Fprint(stdout, wide[i])
		if wide[i] != seq[i] {
			failures++
			fmt.Fprintf(stdout, "FAIL  %s diverged between -parallel %d and sequential:\n--- parallel ---\n%s--- sequential ---\n%s",
				tgt.label, parallel, wide[i], seq[i])
		}
		fmt.Fprintln(stdout)
	}
	if failures > 0 {
		fmt.Fprintf(stdout, "chaos gate: %d of %d targets diverged across parallelism\n", failures, len(chaosTargets))
		return 1
	}
	fmt.Fprintf(stdout, "chaos gate PASS: %d targets byte-identical at -parallel %d and sequential\n",
		len(chaosTargets), parallel)
	return 0
}
