package main

import (
	"fmt"
	"io"

	"aitax"
)

// runApp is aitax app: it runs the instrumented Android-application
// pipeline for one model and prints the per-stage AI-tax breakdown,
// optionally under multi-tenant background load.
//
//	aitax app -model "MobileNet 1.0 v1" -dtype int8 -delegate nnapi -frames 100
//	aitax app -model "MobileNet 1.0 v1" -dtype int8 -bg 3 -bgdelegate hexagon
func runApp(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("app", stderr)
	run := bindRun(fs, "MobileNet 1.0 v1", "int8", "nnapi", true)
	frames := fs.Int("frames", 100, "measured frames")
	taxonomy := fs.Bool("taxonomy", false, "print the Fig. 1 AI-tax taxonomy and exit")
	csvPath := fs.String("csv", "", "write per-frame stage breakdowns to this CSV file")
	common := register(fs, sharedFlags{Trace: true, Metrics: true, Faults: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *taxonomy {
		fmt.Fprint(stdout, aitax.RenderTaxonomy())
		return 0
	}

	opts, err := run.options()
	if err != nil {
		return fail(stderr, err)
	}
	if opts.Faults, err = common.FaultPlan(); err != nil {
		return fail(stderr, err)
	}
	opts.Frames = *frames
	// Tracing never perturbs the run: with -trace/-metrics set, the
	// frames (and thus all stdout) are identical to an untraced run —
	// only the side files and stderr notes are added.
	var perFrame []aitax.FrameStats
	if common.Trace != "" || common.Metrics != "" {
		tr, err := aitax.MeasureAppTraced(opts)
		if err != nil {
			return fail(stderr, err)
		}
		perFrame = tr.Frames
		if common.Trace != "" {
			if err := writeFile(common.Trace, tr.Chrome.WriteJSON); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stderr, "chrome trace written to %s\n", common.Trace)
		}
		if common.Metrics != "" {
			if err := writeFile(common.Metrics, tr.Metrics.WritePrometheus); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintf(stderr, "metrics written to %s\n", common.Metrics)
		}
	} else if perFrame, err = aitax.MeasureAppFrames(opts); err != nil {
		return fail(stderr, err)
	}
	breakdown := aitax.TaxBreakdown(perFrame)

	fmt.Fprintf(stdout, "application: model=%q dtype=%s delegate=%s platform=%q background=%d\n",
		opts.Model, opts.DType, opts.Delegate, opts.Platform.Name, opts.BackgroundJobs)
	fmt.Fprint(stdout, breakdown.Render())
	fmt.Fprintf(stdout, "e2e distribution: %s\n", breakdown.E2E)

	if *csvPath != "" {
		err := writeFile(*csvPath, func(w io.Writer) error {
			fmt.Fprintln(w, "frame,capture_ms,pre_ms,inference_ms,post_ms,ui_ms,total_ms")
			for i, st := range perFrame {
				s := st.Stage
				if _, err := fmt.Fprintf(w, "%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n", i,
					ms(s[aitax.StageCapture]), ms(s[aitax.StagePre]), ms(s[aitax.StageInference]),
					ms(s[aitax.StagePost]), ms(s[aitax.StageUI]), ms(st.Total)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stdout, "wrote %d frame rows to %s\n", len(perFrame), *csvPath)
	}
	return 0
}
