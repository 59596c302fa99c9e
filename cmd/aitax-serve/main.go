// Command aitax-serve runs the inference-serving frontend: per-model
// bounded queues, micro-batching and admission control in front of the
// simulated mobile stack.
//
// Two modes share one serving policy:
//
//	aitax-serve -addr :8080
//	    wall-clock HTTP server (POST /v1/classify|detect|segment,
//	    GET /v1/models, /healthz, /metrics)
//
//	aitax-serve -loadgen -ramp 100x1s,400x500ms -seed 7
//	    deterministic virtual-time load simulation driven by a seeded
//	    open-loop Poisson generator; the report (p50/p90/p99 latency,
//	    AI tax per request, admission and batching counts) is
//	    byte-identical for a fixed seed at any -parallel value.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/cli"
	"aitax/internal/lab"
	"aitax/internal/loadgen"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/serve"
	"aitax/internal/sim"
	"aitax/internal/thermal"
	"aitax/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: flags in, report (or server) out.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("aitax-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", ":8080", "HTTP listen address (server mode)")
	loadMode := fs.Bool("loadgen", false, "run the deterministic load simulation instead of serving HTTP")
	ramp := fs.String("ramp", "10x1s,150x1s", "open-loop QPS ramp, QPSxDURATION per phase")
	mix := fs.String("mix", "", `request mix, "MODEL[=WEIGHT][:CLASS],..." (class: interactive | standard | best-effort; default: all loaded models, equal weight, standard)`)
	modelList := fs.String("models", "", "comma-separated loaded models (default: one per endpoint task)")
	platform := fs.String("platform", "Google Pixel 3", "platform name or chipset (Table II)")
	dtype := fs.String("dtype", "fp32", "precision: fp32 | int8 (int8 needs every loaded model quantized)")
	delegate := fs.String("delegate", "nnapi", "delegate: cpu | gpu | hexagon | nnapi")
	entry := fs.String("entry", "pre", "stage served requests enter at: pre | inference")
	workers := fs.Int("workers", 2, "model executors (batches in service at once)")
	window := fs.Duration("batch-window", 2*time.Millisecond, "micro-batch window (0 = dispatch immediately)")
	maxBatch := fs.Int("max-batch", 4, "flush a batch early at this size")
	queueDepth := fs.Int("queue-depth", 16, "per-model admission limit; beyond it requests are rejected (HTTP 429)")
	dispatch := fs.Duration("dispatch-cost", 200*time.Microsecond, "per-batch dispatch overhead, amortized across the batch")
	seed := fs.Uint64("seed", 42, "random seed (0 is a valid seed)")
	sloSpec := fs.String("slo", "", `latency SLOs, "MODEL=LATENCY@TARGET,..." (e.g. "all=5ms@95"); enables burn-rate monitoring`)
	qosSpec := fs.String("qos", "", `brownout ladder, "key=value,..." or "on" for defaults (tick=50ms hold=8 enter=0.5/0.7/0.9 exit=0.25/0.4/0.6 ...); requires -slo`)
	qosObserve := fs.Bool("qos-observe", false, "freeze the brownout controller at level 0: report the would-be timeline, take no action")
	downshift := fs.String("downshift", "", `model downshift map, "FROM=TO,..." (both loaded, same task; engages at ladder level 2)`)
	steer := fs.String("steer", "gpu", "delegate batches steer to at ladder level 3 (must differ from -delegate)")
	thermalSpec := fs.String("thermal", "", `accelerator die model, "key=value,..." (ambient/max/start/floor/tau/trip; default thermal.Default)`)
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "graceful-shutdown deadline for in-flight batches (server mode)")
	watch := fs.Bool("watch", false, "terminal dashboard: end-of-run snapshot in -loadgen mode, periodic refresh in server mode")
	obsOut := fs.String("obs", "", "write per-window time-series rows (JSONL) to this file (-loadgen mode)")
	obsWindow := fs.Duration("obs-window", 0, "streaming recorder window (default 250ms)")
	prewarm := fs.Bool("prewarm", false, "compile all serving plans (and warm server telemetry) before taking traffic; the cold-start tax moved to startup is reported on stderr")
	common := cli.Register(fs, cli.Options{
		Trace: true, Metrics: true, Faults: true, Parallel: true, Progress: true,
	})
	if err := fs.Parse(args); err != nil {
		return 2
	}

	cfg, err := buildConfig(*platform, *dtype, *delegate, *entry, *modelList,
		*workers, *window, *maxBatch, *queueDepth, *dispatch, *seed, common)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *sloSpec != "" {
		if cfg.SLO, err = obs.ParseObjectives(*sloSpec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		// An objective for a model that isn't loaded would never match a
		// request and trivially pass — reject the typo up front.
		for _, o := range cfg.SLO {
			if o.Model == "" {
				continue
			}
			loaded := false
			for _, m := range cfg.Models {
				loaded = loaded || m.Name == o.Model
			}
			if !loaded {
				fmt.Fprintf(stderr, "slo: model %q is not loaded\n", o.Model)
				return 1
			}
		}
	}
	cfg.ObsWindow = *obsWindow

	if *qosSpec != "" {
		pol, err := buildQoSPolicy(*qosSpec, *downshift, *steer, *thermalSpec, *qosObserve)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		cfg.QoS = pol
		// Re-validate: the QoS policy constrains the SLO set, the steer
		// delegate and the downshift pairs against the loaded models.
		cfg = cfg.Defaults()
		if err := cfg.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	} else if *downshift != "" || *qosObserve || *thermalSpec != "" {
		fmt.Fprintln(stderr, "serve: -downshift, -qos-observe and -thermal need -qos")
		return 1
	}

	if *loadMode {
		return runLoad(cfg, *ramp, *mix, *seed, *watch, *obsOut, *prewarm, common, stdout, stderr)
	}
	return runServer(cfg, *addr, *watch, *prewarm, *drainTimeout, stderr)
}

// buildQoSPolicy assembles the brownout policy from its flags.
func buildQoSPolicy(ladderSpec, downshift, steer, thermalSpec string, observe bool) (*serve.QoSPolicy, error) {
	lad, err := qos.ParseLadder(ladderSpec)
	if err != nil {
		return nil, err
	}
	sd, err := cli.ParseDelegate(steer)
	if err != nil {
		return nil, err
	}
	pol := &serve.QoSPolicy{Ladder: lad, SteerDelegate: sd, Observe: observe}
	if downshift != "" {
		if pol.Downshift, err = serve.ParseDownshift(downshift); err != nil {
			return nil, err
		}
	}
	if thermalSpec != "" {
		if pol.Thermal, err = thermal.Parse(thermalSpec); err != nil {
			return nil, err
		}
	}
	return pol, nil
}

// buildConfig assembles and validates the serving config from flags.
func buildConfig(platform, dtype, delegate, entry, modelList string,
	workers int, window time.Duration, maxBatch, queueDepth int,
	dispatch time.Duration, seed uint64, common *cli.Common) (serve.Config, error) {
	p, err := aitax.PlatformByName(platform)
	if err != nil {
		return serve.Config{}, err
	}
	dt, err := cli.ParseDType(dtype)
	if err != nil {
		return serve.Config{}, err
	}
	d, err := cli.ParseDelegate(delegate)
	if err != nil {
		return serve.Config{}, err
	}
	st, err := app.ParseStage(entry)
	if err != nil {
		return serve.Config{}, err
	}
	plan, err := common.FaultPlan()
	if err != nil {
		return serve.Config{}, err
	}
	var loaded []*models.Model
	if modelList != "" {
		for _, name := range strings.Split(modelList, ",") {
			m, err := models.ByName(strings.TrimSpace(name))
			if err != nil {
				return serve.Config{}, err
			}
			loaded = append(loaded, m)
		}
	}
	cfg := serve.Config{
		Platform: p, DType: dt, Delegate: d, Models: loaded, Entry: st,
		Workers: workers, BatchWindow: window, MaxBatch: maxBatch,
		QueueDepth: queueDepth, DispatchCost: dispatch,
		Seed: seed, Faults: plan,
	}
	cfg = cfg.Defaults()
	return cfg, cfg.Validate()
}

// runLoad runs the virtual-time load simulation and prints its report.
func runLoad(cfg serve.Config, ramp, mixSpec string, seed uint64,
	watch bool, obsOut string, prewarm bool, common *cli.Common, stdout, stderr io.Writer) int {
	phases, err := loadgen.ParseRamp(ramp)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var mix []loadgen.Share
	if mixSpec == "" {
		for _, m := range cfg.Models {
			mix = append(mix, loadgen.Share{Model: m.Name, Weight: 1})
		}
	} else {
		if mix, err = loadgen.ParseMix(mixSpec); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	spec := loadgen.Spec{Seed: seed, Phases: phases, Mix: mix}
	arrivals, err := spec.Generate()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if prewarm {
		// Warm the plan cache before the cost-table pass so its measured
		// walls reflect steady-state serving, not first-compile outliers.
		// The report goes to stderr: the stdout load report is a pure
		// function of virtual time and stays byte-identical either way.
		rep, err := serve.PrewarmConfig(context.Background(), cfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "prewarm: %s\n", rep)
	}

	var onProgress func(lab.JobResult)
	if common.Progress {
		onProgress = func(r lab.JobResult) {
			status := "done"
			if r.Err != nil {
				status = "FAIL"
			}
			fmt.Fprintf(stderr, "%s cost %-28s wall %8.2fms\n",
				status, r.ID, float64(r.Wall.Microseconds())/1000)
		}
	}
	table, err := serve.BuildCostTable(context.Background(), cfg, common.Parallel, onProgress)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	res, err := serve.Simulate(cfg, table, arrivals, common.Trace != "")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	names := make([]string, len(cfg.Models))
	for i, m := range cfg.Models {
		names[i] = m.Name
	}
	fmt.Fprintf(stdout, "platform: %s (%s) | delegate %s | dtype %s | seed %d\n",
		cfg.Platform.Name, cfg.Platform.Chipset, cfg.Delegate, cfg.DType, seed)
	fmt.Fprintf(stdout, "models: %s\n", strings.Join(names, ", "))
	fmt.Fprint(stdout, res.Report(cfg, ramp))

	// The streaming observability view is built once and shared by the
	// SLO report, the -watch snapshot, the JSONL export and the Chrome
	// counter tracks — all derived from the same deterministic replay.
	var so *serve.SimObs
	if len(cfg.SLO) > 0 || watch || obsOut != "" || common.Trace != "" {
		so = serve.BuildSimObs(cfg, res, cfg.ObsWindow, cfg.SLO)
	}
	if so != nil && so.Monitor != nil {
		so.Monitor.WriteReport(stdout)
		so.Monitor.Export(res.Metrics)
	}
	if watch {
		fmt.Fprintf(stdout, "\n%s", so.Snapshot())
	}
	if obsOut != "" {
		err := cli.WriteFile(obsOut, func(w io.Writer) error {
			for _, row := range so.Rows {
				if err := obs.WriteRowJSONL(w, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "time-series rows written to %s\n", obsOut)
	}

	if common.Metrics != "" {
		if err := cli.WriteFile(common.Metrics, res.Metrics.WritePrometheus); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics written to %s\n", common.Metrics)
	}
	if common.Trace != "" {
		chrome := trace.NewChromeRecorder()
		chrome.AddTelemetry(res.Spans, res.Flows)
		for _, s := range res.Depth {
			chrome.AddCounter("queue depth "+s.Model, s.At, float64(s.Depth))
		}
		// Per-window tax anatomy and latency percentiles as counter
		// tracks, so Perfetto shows the tax evolving over the run.
		for _, row := range so.Rows {
			at := sim.Time(row.EndMS * 1e6)
			for _, st := range obs.Stages {
				if v, ok := row.Counters[obs.StageSeries(st)]; ok {
					chrome.AddCounter("tax "+st+" ms/window", at, v)
				}
			}
			if h, ok := row.Hists[obs.LatencySeries(obs.AllModels)]; ok {
				chrome.AddCounter("latency p99 ms (all)", at, h.P99)
			}
			if v, ok := row.Counters[obs.RejectedSeries(obs.AllModels)]; ok {
				chrome.AddCounter("rejected/window (all)", at, v)
			}
		}
		if so.Monitor != nil {
			for _, a := range so.Monitor.Alerts() {
				chrome.AddInstant("slo "+a.Severity+": "+a.Objective, "slo", sim.Time(a.At), map[string]any{
					"burn_short": a.Short, "burn_long": a.Long,
				})
			}
		}
		// The brownout ladder as a counter track plus one instant marker
		// per transition, so Perfetto shows degradation as part of the
		// run's AI-tax anatomy.
		if d := res.Degradation; d != nil {
			chrome.AddCounter("qos level", 0, 0)
			for _, tr := range d.Transitions {
				chrome.AddCounter("qos level", sim.Time(tr.At), float64(tr.To))
				chrome.AddInstant(fmt.Sprintf("qos L%d->L%d (%s)", tr.From, tr.To, tr.Driver),
					"qos", sim.Time(tr.At), map[string]any{
						"pressure": tr.Pressure, "temp_c": tr.TempC,
					})
			}
		}
		if err := cli.WriteFile(common.Trace, chrome.WriteJSON); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "chrome trace written to %s\n", common.Trace)
	}
	return 0
}

// Connection timeouts for the HTTP frontend: a slow or stalled client
// cannot hold a connection open indefinitely. No write timeout — a
// request may legitimately wait out a batch window and a queue, and the
// pprof endpoints stream for as long as the caller asks.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// runServer starts the wall-clock HTTP frontend and drains it
// gracefully on SIGINT/SIGTERM: admission flips to 503 + Retry-After,
// open micro-batch windows flush so queued requests still get served,
// and in-flight batches have drainTimeout to complete. With watch set
// it re-renders the live dashboard to stderr every two seconds.
func runServer(cfg serve.Config, addr string, watch, prewarm bool, drainTimeout time.Duration, stderr io.Writer) int {
	s, err := serve.NewServer(cfg)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if prewarm {
		rep, err := s.Prewarm(context.Background())
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "prewarm: %s\n", rep)
	}
	fmt.Fprintf(stderr, "aitax-serve listening on %s (%s, %s, %s)\n",
		addr, cfg.Platform.Name, cfg.Delegate, cfg.DType)
	if watch {
		go func() {
			for range time.Tick(2 * time.Second) {
				fmt.Fprintf(stderr, "\n%s", s.Watch())
			}
		}()
	}
	hs := &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	select {
	case err := <-errc:
		s.Close()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, err)
			return 1
		}
		return 0
	case <-ctx.Done():
		stop()
		fmt.Fprintf(stderr, "signal received; draining (timeout %v)\n", drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		// Drain the serving layer first (flush windows, finish batches),
		// then let the HTTP listener close idle connections.
		if err := s.Shutdown(dctx); err != nil {
			fmt.Fprintf(stderr, "drain incomplete: %v\n", err)
			hs.Close()
			return 1
		}
		if err := hs.Shutdown(dctx); err != nil {
			fmt.Fprintf(stderr, "listener shutdown: %v\n", err)
			return 1
		}
		fmt.Fprintln(stderr, "drained cleanly")
		return 0
	}
}
