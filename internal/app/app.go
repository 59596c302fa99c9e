// Package app models the real Android application form factor the paper
// contrasts with benchmarks: a camera preview stream that keeps a CPU
// thread busy converting frames whether or not anyone consumes them,
// per-pixel managed-code pre-processing, inference through a chosen
// delegate, task-specific post-processing, UI rendering with jitter, and
// periodic GC pauses. These are the mechanisms behind the paper's
// app-vs-benchmark gaps (Fig. 3), the data-capture/pre-processing tax
// (Fig. 4), the multi-tenancy curves (Figs. 9/10) and the latency
// distributions (Fig. 11).
package app

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/capture"
	"aitax/internal/core"
	"aitax/internal/fastrpc"
	"aitax/internal/imaging"
	"aitax/internal/lab"
	"aitax/internal/models"
	"aitax/internal/postproc"
	"aitax/internal/preproc"
	"aitax/internal/sched"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
	"aitax/internal/work"
)

// ManagedEfficiency is the throughput derating of per-pixel managed
// (Java/Kotlin) image code relative to the device's scalar rate. The
// classification and pose demo apps process bitmaps this way.
const ManagedEfficiency = 0.11

// NativeEfficiency applies to support-library pipelines implemented as
// vectorized native ops (the segmentation demo).
const NativeEfficiency = 0.9

const (
	// uiBase is the per-frame result-rendering cost; uiJitterCV spreads
	// it (compositor alignment, binder).
	uiBase     = 4 * time.Millisecond
	uiJitterCV = 0.3
	// gcPeriod triggers a collector pause of gcPause every gcPeriod
	// frames.
	gcPeriod = 17
	gcPause  = 7 * time.Millisecond
	// frameInterval paces the background preview stream (30 fps).
	frameInterval = 33 * time.Millisecond
)

// Config selects what the app runs.
type Config struct {
	Model    *models.Model
	DType    tensor.DType
	Delegate tflite.Delegate
	Threads  int
	// Streaming keeps the camera-conversion thread busy in the
	// background, the default for a preview app.
	Streaming bool
	// RealPostprocess executes the actual post-processing algorithms on
	// fabricated model outputs in addition to costing them in virtual
	// time (used by the runnable examples).
	RealPostprocess bool
	// RealPreprocess executes the actual pre-processing kernels (bitmap
	// conversion plus the model's fused resize+normalize/quantize
	// pipeline) on the captured frame in addition to costing the stage
	// in virtual time. Host-side only: stage times are unchanged.
	RealPreprocess bool
	// PreOnDSP offloads the pre-processing stage to the DSP through
	// FastRPC (a FastCV-style pipeline) — the jointly-accelerate-the-
	// mundane-stages direction the paper's conclusion proposes. The DSP
	// crunches pixels far faster than managed CPU code, but each frame
	// pays the RPC transport and the stage now contends with any
	// inference sharing the DSP.
	PreOnDSP bool
	// ProbeOverhead enables driver instrumentation on accelerator
	// inference at the given fractional cost (the paper's 4-7% probe
	// effect; zero disables). Passed through to the interpreter.
	ProbeOverhead float64
}

// FrameStats, Stage and StagePre alias the core names for the host-time
// benchmark (hostbench/, a separate module), which compiles against
// them; all other code uses the core package directly.
type (
	FrameStats = core.StageTimes
	Stage      = core.Stage
)

// StagePre aliases core.StagePre (see FrameStats).
const StagePre = core.StagePre

// App is one running application instance.
type App struct {
	rt     *tflite.Runtime
	cam    *capture.Camera
	imu    *capture.IMU
	ip     *tflite.Interpreter
	cfg    Config
	preRPC *fastrpc.Channel // non-nil when PreOnDSP

	camThread  *sched.Thread
	preThread  *sched.Thread
	postThread *sched.Thread
	uiThread   *sched.Thread

	frames     int
	streaming  bool
	preDSPDown bool // the DSP pre-processing path failed; stay on CPU

	post postScratch
	pre  preScratch
}

// preScratch holds the buffers runRealPreprocess recycles across
// frames: the decoded ARGB bitmap and the preproc pipeline's scratch.
type preScratch struct {
	argb *imaging.ARGBImage
	run  preproc.RunScratch
}

// postScratch holds the buffers runRealPostprocess recycles across
// frames. The stage's results are inspected and discarded each frame, so
// every buffer is safely overwritten by the next one.
type postScratch struct {
	deq0, deq1 *tensor.Tensor
	classes    []postproc.Class
	mask       []int
	boxes      []postproc.Box
	nms, kept  []postproc.Box
	keypoints  []postproc.Keypoint
	anchors    []postproc.Anchor
}

// New builds an app around a runtime.
func New(rt *tflite.Runtime, cfg Config) (*App, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("app: config needs a model")
	}
	ip, err := rt.NewInterpreter(cfg.Model, cfg.DType, tflite.Options{
		Delegate:      cfg.Delegate,
		Threads:       cfg.Threads,
		ProbeOverhead: cfg.ProbeOverhead,
	})
	if err != nil {
		return nil, err
	}
	a := &App{
		rt:  rt,
		cam: capture.NewCamera(rt.Eng, rt.RNG, capture.DefaultPreviewW, capture.DefaultPreviewH),
		imu: capture.NewIMU(rt.Eng, rt.RNG),
		ip:  ip,
		cfg: cfg,

		// The conversion thread is heavy enough that EAS keeps it on the
		// big cluster, where it contends with CPU inference (Fig. 3).
		camThread:  rt.Sch.Spawn("app-camera", sched.BigOnly),
		preThread:  rt.Sch.Spawn("app-pre", nil),
		postThread: rt.Sch.Spawn("app-post", nil),
		uiThread:   rt.Sch.Spawn("app-ui", nil),
	}
	if cfg.PreOnDSP {
		a.preRPC = fastrpc.NewChannel(rt.Eng, rt.Platform.RPC, rt.DSP)
		a.preRPC.Tracer = rt.Tracer
		a.preRPC.Metrics = rt.Metrics
		a.preRPC.Faults = rt.Faults
	}
	return a, nil
}

// Interpreter exposes the app's interpreter (for init-time inspection).
func (a *App) Interpreter() *tflite.Interpreter { return a.ip }

// Camera exposes the app's camera.
func (a *App) Camera() *capture.Camera { return a.cam }

// SetCamera replaces the camera session (e.g. to request a different
// preview resolution). Must be called before Init.
func (a *App) SetCamera(c *capture.Camera) {
	if a.streaming {
		panic("app: SetCamera after the preview stream started")
	}
	a.cam = c
}

// stageDuration converts stage work into a CPU burst length, applying
// the managed-code penalty unless the pipeline is native.
func (a *App) stageDuration(w work.Work, native bool) time.Duration {
	eff := ManagedEfficiency
	if native {
		eff = NativeEfficiency
	} else {
		w.Vectorizable = false // per-pixel managed loops don't vectorize
	}
	d := a.rt.Platform.Big.TimeFor(w, a.ip.DType)
	return time.Duration(float64(d) / eff)
}

// Init loads the model and starts the background preview stream (vision
// apps only; a language app has no camera).
func (a *App) Init(done func()) {
	a.ip.Init(func() {
		if a.cfg.Streaming && !a.ip.Model.Pre.Tokenize {
			a.startStream()
		}
		if done != nil {
			done()
		}
	})
}

// startStream models the camera callback that converts every delivered
// preview frame whether or not the pipeline consumes it — background CPU
// load that benchmarks do not have.
func (a *App) startStream() {
	if a.streaming {
		return
	}
	a.streaming = true
	conv := a.stageDuration(a.cam.ConversionWork(), false)
	var tick func()
	tick = func() {
		if !a.streaming {
			return
		}
		a.camThread.Exec(conv, nil)
		a.rt.Eng.After(frameInterval, tick)
	}
	a.rt.Eng.After(frameInterval, tick)
}

// StopStream halts the background preview stream so a bounded experiment
// can drain its event queue.
func (a *App) StopStream() { a.streaming = false }

// Measure is the measured run every experiment makes (§III): it starts
// bgJobs background tenants running the app's own model and dtype on
// bgDelegate, initializes the app, runs
// warmup+frames frames, stops the preview stream and the tenants, drains
// the engine with lab.Drain (which checks ctx and reports the simulated
// time to an enclosing lab job) and returns the frames after warmup.
func (a *App) Measure(ctx context.Context, warmup, frames, bgJobs int, bgDelegate tflite.Delegate) ([]core.StageTimes, error) {
	bg, err := startTenants(a.rt, a.cfg.Model, a.cfg.DType, bgDelegate, bgJobs)
	if err != nil {
		return nil, err
	}
	var out []core.StageTimes
	a.Init(func() {
		a.Run(warmup+frames, func(sts []core.StageTimes) {
			out = sts[warmup:]
			a.StopStream()
			bg.stopped = true
		})
	})
	if err := lab.Drain(ctx, a.rt.Eng); err != nil {
		return nil, err
	}
	return out, nil
}

// tenants are the background inference load of the multi-tenancy
// experiments (Figs. 9/10): copies of the TFLite benchmark utility
// invoking in a closed loop, e.g. through the Hexagon path (contending
// for the single DSP) or on the CPU (contending with the app's capture
// and pre-processing threads).
type tenants struct {
	jobs, completed int
	stopped         bool
}

// startTenants builds n jobs of the model on the delegate, each of which
// initializes and then invokes until stopped (in-flight invocations
// drain).
func startTenants(rt *tflite.Runtime, m *models.Model, dt tensor.DType, delegate tflite.Delegate, n int) (*tenants, error) {
	t := &tenants{}
	for ; t.jobs < n; t.jobs++ {
		ip, err := rt.NewInterpreter(m, dt, tflite.Options{Delegate: delegate})
		if err != nil {
			return nil, fmt.Errorf("app: background job %d: %w", t.jobs, err)
		}
		ip.Init(func() { t.loop(ip) })
	}
	return t, nil
}

func (t *tenants) loop(ip *tflite.Interpreter) {
	if t.stopped {
		return
	}
	ip.Invoke(func(tflite.Report) {
		t.completed++
		t.loop(ip)
	})
}

// ProcessFrame runs one capture→pre→infer→post→render cycle and reports
// the stage breakdown. With the runtime's Tracer set, the cycle yields a
// span tree — a "frame" root whose capture/pre/inference/post/ui
// children tile it exactly at the stage-time boundaries, with the
// framework and driver layers nesting beneath "inference". The cycle is
// the full traversal of the stage graph in stages.go; served requests
// traverse a subgraph via ProcessRange instead.
func (a *App) ProcessFrame(done func(core.StageTimes)) {
	a.ProcessRange(core.StageCapture, core.StageUI, done)
}

// stageSeries are the per-stage latency series names, then the total's,
// built once: the record path runs per frame and must not rebuild
// labelled keys.
var stageSeries = func() (names [core.NumStages + 1]string) {
	for s := range core.NumStages {
		names[s] = telemetry.Labeled("aitax_stage_ms", "stage", s.String())
	}
	names[core.NumStages] = telemetry.Labeled("aitax_stage_ms", "stage", "total")
	return names
}()

// recordFrame aggregates one frame's stage breakdown into the runtime's
// metrics registry (no-op with metrics off).
func (a *App) recordFrame(st core.StageTimes) {
	m := a.rt.Metrics
	if m == nil {
		return
	}
	m.Inc("aitax_frames_total")
	for s, d := range st.Stage {
		m.Observe(stageSeries[s], float64(d)/float64(time.Millisecond))
	}
	m.Observe(stageSeries[core.NumStages], float64(st.Total)/float64(time.Millisecond))
	m.Observe("aitax_frame_tax_ms", float64(st.Tax())/float64(time.Millisecond))
	// Fault-recovery series only exist once a fault actually fired, so
	// fault-free runs export byte-identical metrics.
	if st.Retry > 0 {
		m.Observe("aitax_frame_retry_ms", float64(st.Retry)/float64(time.Millisecond))
	}
	if st.Fallback > 0 {
		m.Observe("aitax_frame_fallback_ms", float64(st.Fallback)/float64(time.Millisecond))
	}
}

// runPre executes the pre-processing stage on the configured engine:
// the app's CPU thread by default, or the DSP behind FastRPC when
// PreOnDSP is set. DSP vector units chew through pixel math at a rate
// managed code cannot approach, but the stage then queues behind any
// inference tenant of the same DSP.
func (a *App) runPre(w work.Work, native bool, parent *telemetry.ActiveSpan, done func()) {
	if a.preRPC == nil || a.preDSPDown {
		a.preThread.Exec(a.stageDuration(w, native), done)
		return
	}
	dspW := w
	dspW.Vectorizable = true // HVX path
	exec := a.rt.Platform.DSP.TimeFor(dspW, a.ip.DType)
	payload := int64(a.cam.FrameBytes())
	a.preRPC.InvokeSpan(payload, exec, parent, "pre-dsp", func(b fastrpc.Breakdown) {
		if b.Err != nil {
			// The DSP pre-processing path is gone (session setup or
			// transport failure after retries). Degrade permanently to
			// the managed CPU path — like an app disabling its FastCV
			// pipeline — and run this frame's stage there. The failed
			// attempt's time is already inside the pre stage, so it is
			// counted as tax without further accounting.
			a.preDSPDown = true
			a.rt.Tracer.Instant("pre-dsp-fallback", "faults", telemetry.TrackCPU, parent, a.rt.Eng.Now())
			a.rt.Metrics.Inc(telemetry.Labeled("aitax_faults_fallbacks_total", "layer", "app-pre"))
			a.preThread.Exec(a.stageDuration(w, native), done)
			return
		}
		done()
	})
}

// runRealPreprocess executes the genuine pre-processing kernels on the
// delivered frame: the NV21→ARGB bitmap conversion followed by the
// model's pipeline (fused resize+convert). All buffers come from the
// app's scratch, so steady state allocates nothing; the input tensor is
// discarded — model I/O is fabricated separately, as in post.
func (a *App) runRealPreprocess(f *capture.Frame, spec preproc.Spec) {
	s := &a.pre
	if s.argb == nil {
		s.argb = &imaging.ARGBImage{}
	}
	capture.ConvertFrameInto(s.argb, f)
	spec.RunInto(&s.run, s.argb)
}

// runRealPostprocess executes the genuine algorithms on fabricated
// outputs so example binaries produce inspectable results.
func (a *App) runRealPostprocess() {
	m := a.ip.Model
	s := &a.post
	outs := a.ip.FabricateOutputs()
	switch m.Task {
	case models.Classification, models.FaceRecognition, models.LanguageProcessing:
		out := outs[0]
		if a.ip.DType != tensor.Float32 {
			s.deq0 = postproc.DequantizeInto(s.deq0, out)
			out = s.deq0
		}
		s.classes = postproc.TopKInto(s.classes[:0], out, 5)
	case models.Segmentation:
		s.mask = postproc.FlattenMaskInto(s.mask[:0], outs[0])
	case models.ObjectDetection:
		n := m.OutputShapes[0][1]
		locs, scores := outs[0], outs[1]
		if a.ip.DType != tensor.Float32 {
			s.deq0 = postproc.DequantizeInto(s.deq0, locs)
			s.deq1 = postproc.DequantizeInto(s.deq1, scores)
			locs, scores = s.deq0, s.deq1
		}
		if len(s.anchors) < n {
			grid := 1
			for grid*grid*3 < n {
				grid++
			}
			s.anchors = postproc.DefaultAnchors(grid)
		}
		s.boxes = postproc.DecodeBoxesInto(s.boxes[:0], locs, scores, s.anchors[:n], 0.5)
		s.kept = postproc.NMSInto(s.kept[:0], &s.nms, s.boxes, 0.5, 10)
	case models.PoseEstimation:
		s.keypoints = postproc.DecodeKeypointsInto(s.keypoints[:0], outs[0], outs[1], m.PoseOutputStride)
	}
}

// Run processes n frames sequentially and reports every breakdown.
func (a *App) Run(n int, done func([]core.StageTimes)) {
	stats := make([]core.StageTimes, 0, n)
	var loop func(i int)
	loop = func(i int) {
		if i >= n {
			if done != nil {
				done(stats)
			}
			return
		}
		a.ProcessFrame(func(st core.StageTimes) {
			stats = append(stats, st)
			loop(i + 1)
		})
	}
	loop(0)
}
