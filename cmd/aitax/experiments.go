package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"aitax"
	"aitax/internal/telemetry"
)

// runExperiments is aitax experiments: it regenerates the paper's tables
// and figures on the simulated platform.
//
// Experiments are independent simulations, so they run concurrently on a
// worker pool (-parallel, default GOMAXPROCS); results are merged back
// in paper order, so output is byte-identical at any parallelism.
//
//	aitax experiments                 # run everything, GOMAXPROCS-wide
//	aitax experiments -run fig5       # one experiment
//	aitax experiments -list           # list experiment ids
//	aitax experiments -parallel 1     # strictly sequential
//	aitax experiments -runs 500 -parallel 8 -progress   # paper scale
//	aitax experiments -runs 100 -platform "Snapdragon 855" -seed 7
func runExperiments(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("experiments", stderr)
	runIDs := fs.String("run", "all", "experiment id(s) to run, comma-separated, or 'all'")
	list := fs.Bool("list", false, "list experiment ids and exit")
	runs := fs.Int("runs", 50, "iterations per configuration (paper: 500)")
	format := fs.String("format", "text", "output format: text | markdown | csv")
	platform := fs.String("platform", "Google Pixel 3", "platform name or chipset (Table II)")
	seed := fs.Uint64("seed", 42, "random seed (0 is a valid seed)")
	common := register(fs, sharedFlags{
		Trace: true, Metrics: true, Faults: true, Parallel: true, Progress: true,
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range aitax.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	p, err := aitax.PlatformByName(*platform)
	if err != nil {
		return fail(stderr, err)
	}
	plan, err := common.FaultPlan()
	if err != nil {
		return fail(stderr, err)
	}
	// SeedSet: the flag always carries an explicit value, so -seed 0
	// really means seed 0.
	cfg := aitax.ExperimentConfig{Platform: p, Seed: *seed, SeedSet: true, Runs: *runs, Faults: plan}

	var selected []aitax.Experiment
	if *runIDs == "all" {
		selected = aitax.Experiments()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := aitax.ExperimentByID(strings.TrimSpace(id))
			if err != nil {
				return fail(stderr, err)
			}
			selected = append(selected, e)
		}
	}

	if *format == "text" {
		fmt.Fprintf(stdout, "platform: %s (%s) | seed %d | %d runs/config\n\n",
			p.Name, p.Chipset, *seed, *runs)
	}

	jobs := make([]aitax.Job, len(selected))
	for i, e := range selected {
		e := e
		jobs[i] = aitax.Job{
			ID: e.ID,
			Run: func(ctx context.Context) (any, error) {
				return e.RunCtx(ctx, cfg)
			},
		}
	}
	l := &aitax.Lab{Parallelism: common.Parallel}
	if common.Progress {
		l.OnProgress = func(r aitax.JobResult) {
			status := "done"
			if r.Err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(stderr, "%s %-20s wall %8.2fms\n",
				status, r.ID, float64(r.Wall.Microseconds())/1000)
		}
	}

	failures := 0
	results := l.RunEmit(context.Background(), jobs, func(r aitax.JobResult) {
		if r.Err != nil {
			failures++
			fmt.Fprintf(stderr, "%s: %v\n", r.ID, r.Err)
			return
		}
		res := r.Value.(*aitax.ExperimentResult)
		switch *format {
		case "markdown":
			fmt.Fprint(stdout, res.RenderMarkdown())
		case "csv":
			fmt.Fprint(stdout, res.RenderCSV())
		default:
			fmt.Fprintln(stdout, res.Render())
		}
	})
	if common.Trace != "" || common.Metrics != "" {
		if err := exportTelemetry(results, common.Trace, common.Metrics, stderr); err != nil {
			return fail(stderr, err)
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}

// exportTelemetry merges the jobs' telemetry bundles in submission order
// and folds in the harness's own accounting — all on virtual time, so
// both files are byte-identical at any -parallel value.
func exportTelemetry(results []aitax.JobResult, tracePath, metricsPath string, stderr io.Writer) error {
	bundle := aitax.MergeJobTelemetry(results)
	reg := bundle.Registry
	if reg == nil {
		reg = aitax.NewMetricsRegistry()
	}
	for _, r := range results {
		reg.Inc("aitax_experiments_total")
		if r.Err != nil {
			reg.Inc("aitax_experiment_failures_total")
			continue
		}
		reg.Observe(telemetry.Labeled("aitax_experiment_sim_ms", "id", r.ID),
			ms(r.Sim))
	}
	if metricsPath != "" {
		if err := writeFile(metricsPath, reg.WritePrometheus); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "metrics written to %s\n", metricsPath)
	}
	if tracePath != "" {
		chrome := aitax.NewChromeTrace()
		chrome.AddTelemetry(bundle.Spans, bundle.Flows)
		if err := writeFile(tracePath, chrome.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "chrome trace written to %s\n", tracePath)
	}
	return nil
}
