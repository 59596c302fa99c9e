// Package aitax is a library for end-to-end performance analysis of
// machine learning on mobile SoCs, reproducing "AI Tax in Mobile SoCs"
// (Buch, Azad, Joshi, Janapa Reddi — ISPASS 2021) on a deterministic
// simulated platform.
//
// The paper's thesis: the time an ML application spends *outside* model
// inference — data capture, pre-/post-processing, framework scheduling,
// accelerator offload, cold start, multi-tenancy contention and
// run-to-run variability — is a first-class performance quantity, the
// "AI tax", that inference-only benchmarks miss.
//
// This package is the public face of the repository. It re-exports the
// building blocks (model zoo, simulated Snapdragon platforms, a
// TFLite-style runtime with CPU/GPU/Hexagon/NNAPI delegates, an
// instrumented Android-app pipeline) and offers one-call helpers for
// the common measurements. The experiment harness in internal/bench
// regenerates every table and figure of the paper; see EXPERIMENTS.md.
//
// Quickstart:
//
//	breakdown, err := aitax.MeasureApp(aitax.AppOptions{
//		Model:    "MobileNet 1.0 v1",
//		DType:    aitax.UInt8,
//		Delegate: aitax.DelegateNNAPI,
//		Frames:   50,
//	})
//	fmt.Println(breakdown.Render()) // per-stage latency + AI tax share
package aitax

import (
	"context"
	"fmt"

	"aitax/internal/app"
	"aitax/internal/bench"
	"aitax/internal/core"
	"aitax/internal/driver"
	"aitax/internal/faults"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/snpe"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
	"aitax/internal/trace"
)

// Model zoo (paper Table I).
type (
	// Model is one Table-I benchmark model: graph, pipeline spec,
	// support matrix.
	Model = models.Model
	// Task is the model's ML task category.
	Task = models.Task
)

// Typed lookup failures. The lookup helpers wrap these sentinels, so
// callers branch with errors.Is — a serving frontend maps
// ErrUnknownModel to a 404 — instead of matching message text.
var (
	// ErrUnknownModel is wrapped by ModelByName when no model matches.
	ErrUnknownModel = models.ErrUnknownModel
	// ErrUnknownPlatform is wrapped by PlatformByName when no platform
	// matches.
	ErrUnknownPlatform = soc.ErrUnknownPlatform
	// ErrUnknownExperiment is wrapped by ExperimentByID when no
	// experiment matches.
	ErrUnknownExperiment = bench.ErrUnknownExperiment
)

// Models returns the Table-I model zoo in row order.
func Models() []*Model { return models.All() }

// ModelByName looks a model up by its Table-I name (aliases like
// "MobileNetV1" work). A failed lookup wraps ErrUnknownModel.
func ModelByName(name string) (*Model, error) { return models.ByName(name) }

// ModelNames lists the zoo's names in Table-I order.
func ModelNames() []string { return models.Names() }

// SoC is one simulated hardware platform (paper Table II).
type SoC = soc.SoC

// Platforms returns the four Table-II platforms.
func Platforms() []*SoC { return soc.Platforms() }

// PlatformByName finds a platform by product or chipset name. A failed
// lookup wraps ErrUnknownPlatform.
func PlatformByName(name string) (*SoC, error) { return soc.PlatformByName(name) }

// Pixel3 returns the paper's primary platform (Snapdragon 845).
func Pixel3() *SoC { return soc.Pixel3() }

// Element types.
type DType = tensor.DType

// Element type constants.
const (
	Float32 = tensor.Float32
	UInt8   = tensor.UInt8
)

// Runtime plumbing.
type (
	// Runtime is one simulated process's execution stack.
	Runtime = tflite.Runtime
	// Interpreter executes one model with one delegate configuration.
	Interpreter = tflite.Interpreter
	// InterpreterOptions configure an interpreter.
	InterpreterOptions = tflite.Options
	// Delegate selects the execution path.
	Delegate = tflite.Delegate
	// RunSample is one measured benchmark iteration: random input
	// generation is its capture stage, and post stays zero.
	RunSample = core.StageTimes
	// StdLib selects the C++ standard library the benchmark binary was
	// compiled against (libc++ vs libstdc++).
	StdLib = tflite.StdLib
	// InvokeReport describes one inference invocation.
	InvokeReport = tflite.Report
	// SNPERuntime selects an SNPE execution runtime (CPU/GPU/DSP).
	SNPERuntime = snpe.RuntimeKind
	// ExecResult describes how a delegate execution spent its time.
	ExecResult = driver.Result
)

// SNPEDSP selects SNPE's Hexagon DSP runtime.
const SNPEDSP = snpe.RuntimeDSP

// Standard-library constants.
const (
	LibCXX    = tflite.LibCXX
	LibStdCXX = tflite.LibStdCXX
)

// Delegate constants.
const (
	DelegateCPU     = tflite.DelegateCPU
	DelegateGPU     = tflite.DelegateGPU
	DelegateHexagon = tflite.DelegateHexagon
	DelegateNNAPI   = tflite.DelegateNNAPI
)

// NewStack builds a fresh simulated process (engine, scheduler, runtime)
// on the platform.
func NewStack(platform *SoC, seed uint64) *Runtime { return tflite.NewStack(platform, seed) }

// FrameStats is one frame of the instrumented Android-application
// pipeline: its per-stage latency breakdown, indexed by PipelineStage.
type FrameStats = core.StageTimes

// AI-tax accounting (paper Fig. 1).
type (
	// Breakdown is an aggregated per-stage latency account.
	Breakdown = core.Breakdown
	// TaxonomyComponent is one leaf of the Fig. 1 overhead taxonomy.
	TaxonomyComponent = core.Component
)

// TaxBreakdown aggregates instrumented frames into a stage breakdown.
func TaxBreakdown(frames []FrameStats) Breakdown { return core.FromFrames(frames) }

// Taxonomy returns the Fig. 1 AI-tax taxonomy.
func Taxonomy() []TaxonomyComponent { return core.Taxonomy() }

// RenderTaxonomy draws the Fig. 1 tree as text.
func RenderTaxonomy() string { return core.RenderTaxonomy() }

// Experiments (tables and figures).
type (
	// Experiment regenerates one table or figure of the paper.
	Experiment = bench.Experiment
	// ExperimentConfig parameterizes an experiment run.
	ExperimentConfig = bench.Config
	// ExperimentResult is a regenerated artifact.
	ExperimentResult = bench.Result
)

// Experiments lists every regenerable table and figure in paper order.
func Experiments() []Experiment { return bench.Experiments() }

// ExperimentByID finds an experiment ("table1", "fig5", ...). A failed
// lookup wraps ErrUnknownExperiment.
func ExperimentByID(id string) (Experiment, error) { return bench.ByID(id) }

// RunAllExperiments regenerates every experiment across a worker pool of
// the given size (<= 0 means GOMAXPROCS), returning results in paper
// order regardless of completion order — rendered output is
// byte-identical at any parallelism. A failing or panicking experiment
// becomes an error Result (Notes carry a "setup failed" line), never a
// crashed run.
func RunAllExperiments(cfg ExperimentConfig, parallelism int) []*ExperimentResult {
	return bench.RunAll(cfg, parallelism)
}

// Parallel experiment lab.
type (
	// Lab is a concurrent measurement-job engine: a bounded worker pool
	// with panic isolation, per-job accounting, and a deterministic
	// merge that emits results in submission order.
	Lab = lab.Lab
	// Job is one unit of lab work.
	Job = lab.Job
	// JobResult is the outcome of one lab job.
	JobResult = lab.JobResult
	// LabPanicError is the error a panicking lab job is converted to.
	LabPanicError = lab.PanicError
)

// Telemetry (pipeline spans, deterministic metrics, Chrome trace).
type (
	// Span is one timed region of pipeline work on the virtual clock.
	Span = telemetry.Span
	// SpanFlow links two spans across tracks (a FastRPC or GPU
	// dispatch crossing); Chrome traces render it as a flow arrow.
	SpanFlow = telemetry.Flow
	// Tracer records spans and flows against a virtual clock.
	Tracer = telemetry.Tracer
	// MetricsRegistry is a deterministic counter/gauge/histogram
	// registry with exact quantiles and Prometheus/JSON export.
	MetricsRegistry = telemetry.Registry
	// TelemetryBundle carries one run's spans, flows and metrics.
	TelemetryBundle = telemetry.Bundle
	// ChromeTrace merges scheduler slices, pipeline spans and counter
	// tracks into one Chrome/Perfetto trace-event file.
	ChromeTrace = trace.ChromeRecorder
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// NewChromeTrace creates an empty Chrome trace-event recorder.
func NewChromeTrace() *ChromeTrace { return trace.NewChromeRecorder() }

// ReportTelemetry attaches a telemetry bundle to the enclosing lab job;
// outside a lab job it is a no-op. MeasureAppTracedCtx calls it
// automatically.
func ReportTelemetry(ctx context.Context, b *TelemetryBundle) { lab.ReportTelemetry(ctx, b) }

// MergeJobTelemetry combines lab results' telemetry bundles in
// submission order, so the aggregate is identical at any parallelism.
func MergeJobTelemetry(results []JobResult) *TelemetryBundle { return lab.MergeTelemetry(results) }

// Fault injection (deterministic offload-failure modeling).
type (
	// FaultPlan describes what the fault injector may break: FastRPC
	// transport errors and timeouts, session-setup failures, delegate /
	// driver init failures, driver stalls and thermal trips. The zero
	// value injects nothing and keeps runs byte-identical; see
	// docs/FAULTS.md.
	FaultPlan = faults.Plan
	// FaultError is a terminal injected failure (retries exhausted or a
	// non-retryable fault); errors.As against it recovers the site.
	FaultError = faults.Error
)

// ParseFaultPlan parses the -faults CLI spec ("rpc=0.1,timeout=0.05,
// deadline=40ms,init=1,seed=7,...") into a FaultPlan. The empty string
// is the zero plan.
func ParseFaultPlan(spec string) (FaultPlan, error) { return faults.ParsePlan(spec) }

// DefaultSeed is the seed every measurement uses when none is set
// explicitly (see AppOptions.SeedSet and ExperimentConfig.SeedSet).
const DefaultSeed uint64 = bench.DefaultSeed

// AppOptions configure MeasureApp, MeasureAppFrames and
// MeasureBenchmark. Each field documents which calls honour it; calls
// return an error when an option they ignore is set, instead of
// silently dropping it. Defaults documents the unset-field behaviour.
type AppOptions struct {
	// Model is the Table-I model name. All calls.
	Model string
	// DType is the precision (Float32 or UInt8). All calls.
	DType DType
	// Delegate is the execution path. All calls.
	Delegate Delegate
	// Frames is the number of measured frames (default 50; negative is
	// an error). All calls.
	Frames int
	// WarmupFrames are discarded before measuring: 0 selects the default
	// of 2, a negative value disables warmup. MeasureApp and
	// MeasureAppFrames only; MeasureBenchmark rejects it (the benchmark
	// utility has no warmup phase).
	WarmupFrames int
	// Platform defaults to the Pixel 3. All calls.
	Platform *SoC
	// Seed fixes the run's stochastic behaviour. All calls. A zero Seed
	// with SeedSet false selects DefaultSeed (42); set SeedSet to
	// request seed 0 itself.
	Seed uint64
	// SeedSet marks Seed as explicit, making Seed 0 requestable.
	// Without it a zero Seed is indistinguishable from "unset".
	SeedSet bool
	// BackgroundJobs adds multi-tenant load on BackgroundDelegate.
	// MeasureApp and MeasureAppFrames only; MeasureBenchmark rejects it
	// (the benchmark utility models a single isolated process).
	BackgroundJobs     int
	BackgroundDelegate Delegate
	// StdLib selects the benchmark binary's C++ standard library, which
	// flips the random-generation cost asymmetry (§IV-A).
	// MeasureBenchmark only; the app calls reject a non-default value
	// (the application pipeline processes real frames, not random
	// input).
	StdLib StdLib
	// ProbeOverhead models the instrumentation probe effect (§III-C) as
	// a fractional compute-time inflation on accelerator targets; the
	// paper measured 4–7%, i.e. 0.04–0.07. Zero (the default) disables
	// the probe entirely; CPU targets are never wrapped either way.
	// All calls; values outside [0, 0.25] and the NNAPI delegate
	// (which owns its targets) are rejected at interpreter build time.
	ProbeOverhead float64
	// Faults injects deterministic offload failures (see FaultPlan).
	// The zero plan injects nothing and leaves output byte-identical;
	// a plan without an explicit fault Seed derives one from the run
	// seed, so run-level determinism extends to the fault stream.
	// All calls; invalid plans are rejected before the run starts.
	Faults FaultPlan
}

// Defaults returns a copy of o with every unset field filled with its
// documented default: Pixel 3 platform, DefaultSeed (unless SeedSet or
// a non-zero Seed marks the seed explicit), 50 frames, and 2 warmup
// frames (a negative WarmupFrames becomes 0, i.e. no warmup).
func (o AppOptions) Defaults() AppOptions {
	if o.Platform == nil {
		o.Platform = soc.Pixel3()
	}
	if !o.SeedSet {
		if o.Seed == 0 {
			o.Seed = DefaultSeed
		}
		o.SeedSet = true
	}
	if o.Frames == 0 {
		o.Frames = 50
	}
	switch {
	case o.WarmupFrames == 0:
		o.WarmupFrames = 2
	case o.WarmupFrames < 0:
		o.WarmupFrames = 0
	}
	return o
}

// MeasureApp is MeasureAppCtx with context.Background(). New code
// should prefer the Ctx form: the non-ctx names exist only as
// one-line conveniences for scripts and examples.
func MeasureApp(opts AppOptions) (Breakdown, error) {
	return MeasureAppCtx(context.Background(), opts)
}

// MeasureAppCtx runs the instrumented application end to end on the
// simulated platform and returns the per-stage AI-tax breakdown — the
// library's one-call answer to "where does my ML app's time go?". It is
// the canonical form: the simulation checks ctx between event batches
// and aborts promptly when it is cancelled, and when run inside a lab
// job it attributes the simulated virtual time to the job's accounting.
func MeasureAppCtx(ctx context.Context, opts AppOptions) (Breakdown, error) {
	frames, err := MeasureAppFramesCtx(ctx, opts)
	if err != nil {
		return Breakdown{}, err
	}
	return core.FromFrames(frames), nil
}

// MeasureBenchmark is MeasureBenchmarkCtx with context.Background().
// New code should prefer the Ctx form.
func MeasureBenchmark(opts AppOptions) ([]RunSample, error) {
	return MeasureBenchmarkCtx(context.Background(), opts)
}

// MeasureBenchmarkCtx runs the TFLite-style benchmark utility for the
// same model and returns its per-run samples — the inference-only view
// the paper contrasts applications against. It is the canonical form,
// with cancellation and lab simulated-time accounting mirroring
// MeasureAppCtx. Options the benchmark utility cannot honour
// (WarmupFrames, BackgroundJobs) are rejected with an error rather than
// silently ignored.
func MeasureBenchmarkCtx(ctx context.Context, opts AppOptions) ([]RunSample, error) {
	if opts.WarmupFrames != 0 {
		return nil, fmt.Errorf("aitax: MeasureBenchmark does not honour WarmupFrames (the benchmark utility has no warmup phase); use MeasureApp, or leave it unset")
	}
	if opts.BackgroundJobs != 0 {
		return nil, fmt.Errorf("aitax: MeasureBenchmark does not honour BackgroundJobs (the benchmark utility models a single isolated process); use MeasureApp, or leave it unset")
	}
	if err := checkFrames(opts); err != nil {
		return nil, err
	}
	opts = opts.Defaults()
	m, err := models.ByName(opts.Model)
	if err != nil {
		return nil, err
	}
	rt := tflite.NewStack(opts.Platform, opts.Seed)
	inj, err := faults.New(opts.Faults.Resolved(opts.Seed))
	if err != nil {
		return nil, err
	}
	rt.Faults = inj
	ip, err := rt.NewInterpreter(m, opts.DType, tflite.Options{Delegate: opts.Delegate, ProbeOverhead: opts.ProbeOverhead})
	if err != nil {
		return nil, err
	}
	bt := tflite.NewBenchTool(rt, ip)
	bt.StdLib = opts.StdLib
	return bt.Measure(ctx, opts.Frames)
}

// MeasureAppFrames is MeasureAppFramesCtx with context.Background().
// New code should prefer the Ctx form.
func MeasureAppFrames(opts AppOptions) ([]FrameStats, error) {
	return MeasureAppFramesCtx(context.Background(), opts)
}

// MeasureAppFramesCtx is MeasureAppCtx returning the raw per-frame
// stage breakdowns instead of the aggregate (for CSV export and custom
// analyses). It is the canonical form, with cancellation and lab
// simulated-time accounting.
func MeasureAppFramesCtx(ctx context.Context, opts AppOptions) ([]FrameStats, error) {
	if opts.StdLib != LibCXX {
		return nil, errAppStdLib()
	}
	opts = opts.Defaults()
	_, frames, err := measureFrames(ctx, opts, nil)
	return frames, err
}

// checkFrames rejects a negative Frames, which no call can run.
func checkFrames(o AppOptions) error {
	if o.Frames < 0 {
		return fmt.Errorf("aitax: negative Frames %d (0 selects the default of 50)", o.Frames)
	}
	return nil
}

// errAppStdLib is the shared rejection for StdLib on app measurements.
func errAppStdLib() error {
	return fmt.Errorf("aitax: the application pipeline does not honour StdLib (it processes real frames, not generated random input); use MeasureBenchmark, or leave it unset")
}

// measureFrames is the shared engine behind MeasureAppFrames and
// MeasureAppTraced: it builds the stack, lets setup (when non-nil)
// enable telemetry on the fresh runtime before any pipeline component
// exists, runs the app for opts.Frames measured frames, and returns
// the runtime alongside the frames. opts must already be defaulted.
func measureFrames(ctx context.Context, opts AppOptions, setup func(*tflite.Runtime)) (*tflite.Runtime, []FrameStats, error) {
	if err := checkFrames(opts); err != nil {
		return nil, nil, err
	}
	m, err := models.ByName(opts.Model)
	if err != nil {
		return nil, nil, err
	}
	rt := tflite.NewStack(opts.Platform, opts.Seed)
	inj, err := faults.New(opts.Faults.Resolved(opts.Seed))
	if err != nil {
		return nil, nil, err
	}
	rt.Faults = inj
	if setup != nil {
		setup(rt)
	}
	a, err := app.New(rt, app.Config{
		Model: m, DType: opts.DType, Delegate: opts.Delegate, Streaming: true,
		ProbeOverhead: opts.ProbeOverhead,
	})
	if err != nil {
		return nil, nil, err
	}
	frames, err := a.Measure(ctx, opts.WarmupFrames, opts.Frames, opts.BackgroundJobs, opts.BackgroundDelegate)
	return rt, frames, err
}

// TraceRun is the full observability record of one traced app run: the
// per-frame stage breakdowns plus the span tree, cross-track flows,
// aggregated metrics and a ready-to-write Chrome trace.
type TraceRun struct {
	// Frames are the measured per-frame stage breakdowns (warmup
	// already discarded), exactly as MeasureAppFrames would return.
	Frames []FrameStats
	// Spans is the run's complete span set; each frame's tree tiles its
	// FrameStats boundaries exactly.
	Spans []Span
	// Flows are the cross-track links (FastRPC down/up, GPU dispatch).
	Flows []SpanFlow
	// Metrics aggregates the run's counters and stage histograms.
	Metrics *MetricsRegistry
	// Chrome holds scheduler slices, pipeline spans, flow arrows and
	// accelerator-occupancy counter tracks, ready for WriteJSON.
	Chrome *ChromeTrace
	// Migrations and ContextSwitches are the scheduler's totals for the
	// run (also recorded in Metrics).
	Migrations      int
	ContextSwitches int
}

// MeasureAppTraced is MeasureAppTracedCtx with context.Background().
// New code should prefer the Ctx form.
func MeasureAppTraced(opts AppOptions) (*TraceRun, error) {
	return MeasureAppTracedCtx(context.Background(), opts)
}

// MeasureAppTracedCtx is MeasureAppFramesCtx with the telemetry layer
// switched on: the same deterministic run (traced and untraced runs of
// one seed produce identical FrameStats) additionally yields spans,
// flows, metrics and a Chrome trace. It is the canonical form: inside a
// lab job it reports both the simulated time and the telemetry bundle,
// so merged aggregates are parallelism-independent.
func MeasureAppTracedCtx(ctx context.Context, opts AppOptions) (*TraceRun, error) {
	if opts.StdLib != LibCXX {
		return nil, errAppStdLib()
	}
	opts = opts.Defaults()
	chrome := trace.NewChromeRecorder()
	rt, frames, err := measureFrames(ctx, opts, func(rt *tflite.Runtime) {
		rt.Tracer = telemetry.NewTracer(rt.Eng.Now)
		rt.Metrics = telemetry.NewRegistry()
		chrome.Attach(rt.Sch)
	})
	if err != nil {
		return nil, err
	}
	mig, sw := rt.Sch.Migrations(), rt.Sch.Switches()
	rt.Metrics.Add("aitax_sched_migrations_total", float64(mig))
	rt.Metrics.Add("aitax_sched_context_switches_total", float64(sw))
	spans, flows := rt.Tracer.Spans(), rt.Tracer.Flows()
	chrome.AddTelemetry(spans, flows)
	chrome.AddSpanOccupancy("dsp in flight", spans, telemetry.TrackDSP)
	chrome.AddSpanOccupancy("gpu in flight", spans, telemetry.TrackGPU)
	chrome.AddFaultCounters(rt.Metrics, rt.Eng.Now())
	lab.ReportTelemetry(ctx, &telemetry.Bundle{Spans: spans, Flows: flows, Registry: rt.Metrics})
	return &TraceRun{
		Frames:          frames,
		Spans:           spans,
		Flows:           flows,
		Metrics:         rt.Metrics,
		Chrome:          chrome,
		Migrations:      mig,
		ContextSwitches: sw,
	}, nil
}
