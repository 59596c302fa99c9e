package main

import (
	"fmt"
	"io"

	"aitax"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tflite"
)

// runApp is aitax app: it runs the instrumented Android-application
// pipeline for one model and prints the per-stage AI-tax breakdown,
// optionally under multi-tenant background load.
//
//	aitax app -model "MobileNet 1.0 v1" -dtype int8 -delegate nnapi -frames 100
//	aitax app -model "MobileNet 1.0 v1" -dtype int8 -bg 3 -bgdelegate hexagon
func runApp(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("app", stderr)
	model := fs.String("model", "MobileNet 1.0 v1", "Table-I model name")
	dtype := fs.String("dtype", "int8", "precision: fp32 | int8")
	delegate := fs.String("delegate", "nnapi", "delegate: cpu | gpu | hexagon | nnapi")
	frames := fs.Int("frames", 100, "measured frames")
	platform := fs.String("platform", "Google Pixel 3", "platform (Table II)")
	seed := fs.Uint64("seed", 42, "random seed (0 is a valid seed)")
	bg := fs.Int("bg", 0, "background inference jobs (multi-tenancy)")
	bgDelegate := fs.String("bgdelegate", "hexagon", "background delegate")
	taxonomy := fs.Bool("taxonomy", false, "print the Fig. 1 AI-tax taxonomy and exit")
	prewarm := fs.Bool("prewarm", false, "compile the Table-I plan grid for this platform before measuring; the cold-start tax moved to startup is reported on stderr")
	csvPath := fs.String("csv", "", "write per-frame stage breakdowns to this CSV file")
	common := register(fs, sharedFlags{Trace: true, Metrics: true, Faults: true})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *taxonomy {
		fmt.Fprint(stdout, aitax.RenderTaxonomy())
		return 0
	}

	dt, err := parseDType(*dtype)
	if err != nil {
		return fail(stderr, err)
	}
	d, err := parseDelegate(*delegate)
	if err != nil {
		return fail(stderr, err)
	}
	bgd, err := parseDelegate(*bgDelegate)
	if err != nil {
		return fail(stderr, err)
	}
	p, err := aitax.PlatformByName(*platform)
	if err != nil {
		return fail(stderr, err)
	}
	plan, err := common.FaultPlan()
	if err != nil {
		return fail(stderr, err)
	}

	if *prewarm {
		// Stdout (the breakdown) is a pure function of virtual time, so
		// warming the host-side plan cache cannot change it; the report
		// goes to stderr like the other side notes.
		rep := tflite.Prewarm([]*soc.SoC{p}, models.All())
		fmt.Fprintf(stderr, "prewarm: %s\n", rep)
	}

	opts := aitax.AppOptions{
		Model: *model, DType: dt, Delegate: d,
		Frames: *frames, Platform: p, Seed: *seed, SeedSet: true,
		BackgroundJobs: *bg, BackgroundDelegate: bgd,
		Faults: plan,
	}
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
		*model, dt, d, p.Name, *bg)
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
