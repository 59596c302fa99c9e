package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"aitax/internal/core"
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

// runServe is aitax serve, the inference-serving frontend: per-model
// bounded queues, micro-batching and admission control in front of the
// simulated mobile stack. Two modes share one serving policy:
//
//	aitax serve -addr :8080
//	    wall-clock HTTP server (POST /v1/classify|detect|segment,
//	    GET /v1/models, /healthz, /metrics)
//
//	aitax serve -loadgen -ramp 100x1s,400x500ms -seed 7
//	    deterministic virtual-time load simulation driven by a seeded
//	    open-loop Poisson generator; the report (p50/p90/p99 latency,
//	    AI tax per request, admission and batching counts) is
//	    byte-identical for a fixed seed at any -parallel value.
func runServe(args []string, stdout, stderr io.Writer) int {
	o, code := parseServe(args, stderr)
	if o == nil {
		return code
	}
	if o.loadgen {
		return runLoad(o, stdout, stderr)
	}
	return runServer(o, stderr)
}

// serveOpts is aitax serve's command line resolved into a validated
// serving config, plus the flags the two run modes read.
type serveOpts struct {
	cfg                          serve.Config
	addr, ramp, mix, qos, obsOut string
	seed                         uint64
	loadgen, watch, prewarm      bool
	drainTimeout                 time.Duration
	common                       *commonFlags
}

// parseServe parses aitax serve's flags and builds the serving config
// they describe. On failure it reports on stderr and returns a nil
// config with the exit code.
func parseServe(args []string, stderr io.Writer) (*serveOpts, int) {
	fs := newFlagSet("serve", stderr)
	addr := fs.String("addr", ":8080", "HTTP listen address (server mode)")
	loadMode := fs.Bool("loadgen", false, "run the deterministic load simulation instead of serving HTTP")
	ramp := fs.String("ramp", "10x1s,150x1s", "open-loop QPS ramp, QPSxDURATION per phase")
	mix := fs.String("mix", "", `request mix, "MODEL[=WEIGHT][:CLASS],..." (class: interactive | standard | best-effort; default: all loaded models, equal weight, standard)`)
	modelList := fs.String("models", "", "comma-separated loaded models (default: one per endpoint task)")
	run := bindPlatform(fs)
	dtype := fs.String("dtype", "fp32", "precision: fp32 | int8 (int8 needs every loaded model quantized)")
	delegate := fs.String("delegate", "nnapi", "delegate: cpu | gpu | hexagon | nnapi")
	entry := fs.String("entry", "pre", "stage served requests enter at: pre | inference")
	workers := fs.Int("workers", 2, "model executors (batches in service at once)")
	window := fs.Duration("batch-window", 2*time.Millisecond, "micro-batch window (0 = dispatch immediately)")
	maxBatch := fs.Int("max-batch", 4, "flush a batch early at this size")
	queueDepth := fs.Int("queue-depth", 16, "per-model admission limit; beyond it requests are rejected (HTTP 429)")
	dispatch := fs.Duration("dispatch-cost", 200*time.Microsecond, "per-batch dispatch overhead, amortized across the batch")
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
	common := register(fs, sharedFlags{
		Trace: true, Metrics: true, Faults: true, Parallel: true, Progress: true,
	})
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}

	p, err := run.soc()
	if err != nil {
		return nil, fail(stderr, err)
	}
	dt, err := parseDType(*dtype)
	if err != nil {
		return nil, fail(stderr, err)
	}
	d, err := parseDelegate(*delegate)
	if err != nil {
		return nil, fail(stderr, err)
	}
	st, err := core.ParseStage(*entry)
	if err != nil {
		return nil, fail(stderr, err)
	}
	plan, err := common.FaultPlan()
	if err != nil {
		return nil, fail(stderr, err)
	}
	var loaded []*models.Model
	if *modelList != "" {
		for _, name := range strings.Split(*modelList, ",") {
			m, err := models.ByName(strings.TrimSpace(name))
			if err != nil {
				return nil, fail(stderr, err)
			}
			loaded = append(loaded, m)
		}
	}
	cfg := serve.Config{
		Platform: p, DType: dt, Delegate: d, Models: loaded, Entry: st,
		Workers: *workers, BatchWindow: *window, MaxBatch: *maxBatch,
		QueueDepth: *queueDepth, DispatchCost: *dispatch,
		Seed: *run.seed, Faults: plan, ObsWindow: *obsWindow,
	}.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, fail(stderr, err)
	}
	if *sloSpec != "" {
		if cfg.SLO, err = obs.ParseObjectives(*sloSpec); err != nil {
			return nil, fail(stderr, err)
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
				return nil, fail(stderr, fmt.Errorf("slo: model %q is not loaded", o.Model))
			}
		}
	}

	if *qosSpec != "" {
		pol, err := buildQoSPolicy(*qosSpec, *downshift, *steer, *thermalSpec, *qosObserve)
		if err != nil {
			return nil, fail(stderr, err)
		}
		cfg.QoS = pol
		// Re-validate: the QoS policy constrains the SLO set, the steer
		// delegate and the downshift pairs against the loaded models.
		cfg = cfg.Defaults()
		if err := cfg.Validate(); err != nil {
			return nil, fail(stderr, err)
		}
	} else if *downshift != "" || *qosObserve || *thermalSpec != "" {
		return nil, fail(stderr, errors.New("serve: -downshift, -qos-observe and -thermal need -qos"))
	}
	return &serveOpts{
		cfg: cfg, addr: *addr, ramp: *ramp, mix: *mix, qos: *qosSpec, obsOut: *obsOut,
		seed: *run.seed, loadgen: *loadMode, watch: *watch, prewarm: *prewarm,
		drainTimeout: *drainTimeout, common: common,
	}, 0
}

// arrivals generates the -loadgen arrival schedule from -ramp, -mix and
// -seed. An empty mix spreads traffic evenly over the loaded models.
func (o *serveOpts) arrivals() ([]loadgen.Arrival, error) {
	phases, err := loadgen.ParseRamp(o.ramp)
	if err != nil {
		return nil, err
	}
	var mix []loadgen.Share
	if o.mix == "" {
		for _, m := range o.cfg.Models {
			mix = append(mix, loadgen.Share{Model: m.Name, Weight: 1})
		}
	} else if mix, err = loadgen.ParseMix(o.mix); err != nil {
		return nil, err
	}
	return loadgen.Spec{Seed: o.seed, Phases: phases, Mix: mix}.Generate()
}

// buildQoSPolicy assembles the brownout policy from its flags.
func buildQoSPolicy(ladderSpec, downshift, steer, thermalSpec string, observe bool) (*serve.QoSPolicy, error) {
	lad, err := qos.ParseLadder(ladderSpec)
	if err != nil {
		return nil, err
	}
	sd, err := parseDelegate(steer)
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

// runLoad runs the virtual-time load simulation and prints its report.
func runLoad(o *serveOpts, stdout, stderr io.Writer) int {
	cfg, common := o.cfg, o.common
	arrivals, err := o.arrivals()
	if err != nil {
		return fail(stderr, err)
	}

	table := serve.NewCostTable()
	if o.prewarm {
		// Warm the plan cache and the batch-1 entries before the
		// cost-table pass, which then measures only the rest. The report
		// goes to stderr: the stdout load report is a pure function of
		// virtual time and stays byte-identical either way.
		rep, err := table.Prewarm(context.Background(), cfg)
		if err != nil {
			return fail(stderr, err)
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
	if err := table.Fill(context.Background(), cfg, common.Parallel, onProgress); err != nil {
		return fail(stderr, err)
	}
	res, err := serve.Simulate(cfg, table, arrivals, common.Trace != "")
	if err != nil {
		return fail(stderr, err)
	}

	fmt.Fprintf(stdout, "platform: %s (%s) | delegate %s | dtype %s | seed %d\n",
		cfg.Platform.Name, cfg.Platform.Chipset, cfg.Delegate, cfg.DType, o.seed)
	fmt.Fprintf(stdout, "models: %s\n", strings.Join(cfg.ModelNames(), ", "))
	fmt.Fprint(stdout, res.Report(cfg, o.ramp))

	// The streaming observability view is built once and shared by the
	// SLO report, the -watch snapshot, the JSONL export and the Chrome
	// counter tracks — all derived from the same deterministic replay.
	var so *serve.SimObs
	if len(cfg.SLO) > 0 || o.watch || o.obsOut != "" || common.Trace != "" {
		so = serve.BuildSimObs(cfg, res, cfg.ObsWindow, cfg.SLO)
	}
	if so != nil && so.Monitor != nil {
		so.Monitor.WriteReport(stdout)
		so.Monitor.Export(res.Metrics)
	}
	if o.watch {
		fmt.Fprintf(stdout, "\n%s", so.Snapshot())
	}
	if o.obsOut != "" {
		err := writeFile(o.obsOut, func(w io.Writer) error {
			for _, row := range so.Rows {
				if err := obs.WriteRowJSONL(w, row); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "time-series rows written to %s\n", o.obsOut)
	}

	if common.Metrics != "" {
		if err := writeFile(common.Metrics, res.Metrics.WritePrometheus); err != nil {
			return fail(stderr, err)
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
		all := obs.SeriesFor(obs.AllModels)
		for _, row := range so.Rows {
			at := sim.Time(row.EndMS * 1e6)
			for i, st := range obs.Stages {
				if v, ok := row.Counters[obs.StageSeries[i]]; ok {
					chrome.AddCounter("tax "+st.String()+" ms/window", at, v)
				}
			}
			if h, ok := row.Hists[all.Latency]; ok {
				chrome.AddCounter("latency p99 ms (all)", at, h.P99)
			}
			if v, ok := row.Counters[all.Rejected]; ok {
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
		if err := writeFile(common.Trace, chrome.WriteJSON); err != nil {
			return fail(stderr, err)
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
func runServer(o *serveOpts, stderr io.Writer) int {
	cfg := o.cfg
	s, err := serve.NewServer(cfg)
	if err != nil {
		return fail(stderr, err)
	}
	if o.prewarm {
		rep, err := s.Prewarm(context.Background())
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprintf(stderr, "prewarm: %s\n", rep)
	}
	fmt.Fprintf(stderr, "aitax serve listening on %s (%s, %s, %s)\n",
		o.addr, cfg.Platform.Name, cfg.Delegate, cfg.DType)
	if o.watch {
		go func() {
			for range time.Tick(2 * time.Second) {
				fmt.Fprintf(stderr, "\n%s", s.Watch())
			}
		}()
	}
	hs := &http.Server{
		Addr:              o.addr,
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
			return fail(stderr, err)
		}
		return 0
	case <-ctx.Done():
		stop()
		fmt.Fprintf(stderr, "signal received; draining (timeout %v)\n", o.drainTimeout)
		dctx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
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
