package main

import (
	"context"
	"fmt"
	"io"
	"strings"

	"aitax"
	"aitax/internal/bench"
	"aitax/internal/lab"
)

// runExperiments is aitax experiments: it regenerates the paper's tables
// and figures on the simulated platform.
//
// The selected experiments declare the configurations they measure; each
// distinct one is measured once, concurrently on a worker pool
// (-parallel, default GOMAXPROCS), and the experiments render from the
// shared measurements in paper order, so output is byte-identical at
// any parallelism.
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
	run := bindPlatform(fs)
	common := register(fs, sharedFlags{Faults: true, Parallel: true, Progress: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range aitax.Experiments() {
			fmt.Fprintf(stdout, "%-10s %s\n", e.ID, e.Title)
		}
		return 0
	}

	p, err := run.soc()
	if err != nil {
		return fail(stderr, err)
	}
	plan, err := common.FaultPlan()
	if err != nil {
		return fail(stderr, err)
	}
	// SeedSet: the flag always carries an explicit value, so -seed 0
	// really means seed 0.
	cfg := aitax.ExperimentConfig{Platform: p, Seed: *run.seed, SeedSet: true, Runs: *runs, Faults: plan}

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
			p.Name, p.Chipset, *run.seed, *runs)
	}

	var onProgress func(lab.JobResult)
	if common.Progress {
		onProgress = func(r lab.JobResult) {
			status := "done"
			if r.Err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(stderr, "%s %-20s wall %8.2fms\n",
				status, r.ID, float64(r.Wall.Microseconds())/1000)
		}
	}

	results, _ := bench.RunExperimentsCtx(context.Background(), selected, cfg, common.Parallel, onProgress)
	failures := 0
	for _, res := range results {
		if err := res.Err(); err != nil {
			failures++
			fmt.Fprintf(stderr, "%s: %v\n", res.ID, err)
			continue
		}
		switch *format {
		case "markdown":
			fmt.Fprint(stdout, res.RenderMarkdown())
		case "csv":
			fmt.Fprint(stdout, res.RenderCSV())
		default:
			fmt.Fprintln(stdout, res.Render())
		}
	}
	if failures > 0 {
		return 1
	}
	return 0
}
