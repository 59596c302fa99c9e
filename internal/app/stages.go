package app

import (
	"fmt"
	"strconv"
	"time"

	"aitax/internal/capture"
	"aitax/internal/preproc"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
	"aitax/internal/tflite"
)

// Stage identifies one node of the application's frame-processing graph.
// A camera frame traverses the whole graph; a served request enters
// mid-graph (its payload arrives over the wire, already captured) and
// exits after post-processing (the server serializes a response instead
// of rendering UI). See ProcessRange.
type Stage int

// The pipeline stages in graph order.
const (
	StageCapture Stage = iota
	StagePre
	StageInference
	StagePost
	StageUI
)

// String names the stage as it appears in spans and reports.
func (s Stage) String() string {
	switch s {
	case StageCapture:
		return "capture"
	case StagePre:
		return "pre"
	case StageInference:
		return "inference"
	case StagePost:
		return "post"
	case StageUI:
		return "ui"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// ParseStage resolves a stage name ("capture", "pre", "inference",
// "post", "ui") to its Stage.
func ParseStage(name string) (Stage, error) {
	for s := StageCapture; s <= StageUI; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("app: unknown stage %q (capture|pre|inference|post|ui)", name)
}

// frameRun is one request's traversal of the stage graph: the in-flight
// FrameStats, the enclosing span, and the capture state later stages
// consume. A full camera frame and a mid-graph served request share this
// carrier; stages a run never enters stay zero in its FrameStats.
type frameRun struct {
	a     *App
	st    FrameStats
	start sim.Time
	// frameNo is the app-lifetime frame index (GC cadence).
	frameNo int
	frame   *telemetry.ActiveSpan
	// spec is the model's pre-processing pipeline; capture's sensor
	// fusion may rewrite its rotation before pre runs.
	spec preproc.Spec
	// capFrame is the delivered camera frame (nil when the run entered
	// the graph past capture: the payload arrived over the wire).
	capFrame *capture.Frame
	// srcW/srcH are the pre stage's input dimensions (0 for text).
	srcW, srcH int
	to         Stage
	done       func(FrameStats)
}

// advance dispatches the run to stage s, or finishes it when the run's
// segment is exhausted.
func (r *frameRun) advance(s Stage) {
	if s > r.to || s > StageUI {
		r.finish()
		return
	}
	switch s {
	case StageCapture:
		r.a.stageCapture(r)
	case StagePre:
		r.a.stagePre(r)
	case StageInference:
		r.a.stageInference(r)
	case StagePost:
		r.a.stagePost(r)
	case StageUI:
		r.a.stageUI(r)
	}
}

// finish closes the run: total latency, root span, metrics, callback.
func (r *frameRun) finish() {
	r.st.Total = r.a.rt.Eng.Now().Sub(r.start)
	r.frame.End()
	r.a.recordFrame(r.st)
	if r.done != nil {
		r.done(r.st)
	}
}

// stageCapture obtains the input. Vision apps wait for the camera's
// sensor delivery, fuse the IMU orientation when the model rotates, and
// pay the bitmap formatting on the camera thread; language apps fetch
// the text input (IME/clipboard, negligible).
func (a *App) stageCapture(r *frameRun) {
	capSpan := a.rt.Tracer.Start("capture", "capture", telemetry.TrackCPU, r.frame)
	if r.spec.Tokenize {
		a.preThread.Exec(a.rt.RNG.Jitter(200*time.Microsecond, 0.2), func() {
			r.st.Capture = a.rt.Eng.Now().Sub(r.start)
			capSpan.End()
			r.advance(StagePre)
		})
		return
	}
	a.cam.Capture(func(f *capture.Frame) {
		r.capFrame = f
		afterFusion := func() {
			conv := a.stageDuration(a.cam.ConversionWork(), false)
			a.camThread.Exec(conv, func() {
				r.st.Capture = a.rt.Eng.Now().Sub(r.start)
				capSpan.End()
				r.advance(StagePre)
			})
		}
		if r.spec.RotateTurns != 0 {
			// Sensor fusion: the frame's rotation follows the IMU's
			// current orientation, read per frame.
			a.imu.ReadOrientation(func(turns int) {
				r.spec.RotateTurns = turns
				afterFusion()
			})
		} else {
			afterFusion()
		}
	})
}

// stagePre runs pre-processing: tokenization on the pre thread for
// language models, otherwise the pixel pipeline on the configured
// engine (CPU thread, or the DSP behind FastRPC when PreOnDSP is set).
func (a *App) stagePre(r *frameRun) {
	preW := r.spec.Work(r.srcW, r.srcH)
	preStart := a.rt.Eng.Now()
	preSpan := a.rt.Tracer.Start("pre", "preproc", telemetry.TrackCPU, r.frame)
	next := func() {
		if a.cfg.RealPreprocess && r.capFrame != nil {
			a.runRealPreprocess(r.capFrame, r.spec)
		}
		r.st.Pre = a.rt.Eng.Now().Sub(preStart)
		preSpan.End()
		r.advance(StageInference)
	}
	if r.spec.Tokenize {
		a.preThread.Exec(a.stageDuration(preW, false), next)
		return
	}
	a.runPre(preW, r.spec.Native, preSpan, next)
}

// stageInference invokes the model through the delegate.
func (a *App) stageInference(r *frameRun) {
	invStart := a.rt.Eng.Now()
	infSpan := a.rt.Tracer.Start("inference", "app", telemetry.TrackCPU, r.frame)
	a.ip.InvokeTraced(infSpan, func(rep tflite.Report) {
		r.st.Inference = a.rt.Eng.Now().Sub(invStart)
		r.st.Retry = rep.Retry
		r.st.Fallback = rep.FallbackCost
		infSpan.End()
		r.advance(StagePost)
	})
}

// stagePost runs task-specific post-processing.
func (a *App) stagePost(r *frameRun) {
	postStart := a.rt.Eng.Now()
	postSpan := a.rt.Tracer.Start("post", "postproc", telemetry.TrackCPU, r.frame)
	postW := a.ip.Model.PostWork(a.ip.DType)
	a.postThread.Exec(a.stageDuration(postW, true), func() {
		if a.cfg.RealPostprocess {
			a.runRealPostprocess()
		}
		r.st.Post = a.rt.Eng.Now().Sub(postStart)
		postSpan.End()
		r.advance(StageUI)
	})
}

// stageUI renders the result (plus the periodic GC pause).
func (a *App) stageUI(r *frameRun) {
	uiStart := a.rt.Eng.Now()
	uiSpan := a.rt.Tracer.Start("ui", "app", telemetry.TrackCPU, r.frame)
	ui := a.rt.RNG.Jitter(uiBase, uiJitterCV)
	if r.frameNo%gcPeriod == 0 {
		ui += gcPause
		uiSpan.SetAttr("gc", "1")
		a.rt.Metrics.Inc("aitax_gc_pauses_total")
	}
	a.uiThread.Exec(ui, func() {
		r.st.UI = a.rt.Eng.Now().Sub(uiStart)
		uiSpan.End()
		r.advance(StageUI + 1)
	})
}

// ProcessRange runs the stage subgraph [from, to] and reports the stage
// breakdown of the stages that actually ran (the rest stay zero, so
// FrameStats.Tax remains exact for the segment). A served request enters
// at StagePre (its payload needs the pixel pipeline) or StageInference
// (the payload is a ready tensor) and exits after StagePost — the server
// serializes a response instead of rendering UI.
func (a *App) ProcessRange(from, to Stage, done func(FrameStats)) {
	if from < StageCapture || to > StageUI || from > to {
		panic(fmt.Sprintf("app: invalid stage range [%v, %v]", from, to))
	}
	r := &frameRun{a: a, start: a.rt.Eng.Now(), to: to, done: done}
	a.frames++
	r.frameNo = a.frames
	r.frame = a.rt.Tracer.Start("frame", "app", telemetry.TrackCPU, nil)
	r.frame.SetAttr("frame", strconv.Itoa(r.frameNo))
	r.spec = a.ip.Model.PreSpec(a.ip.DType)
	if !r.spec.Tokenize {
		r.srcW, r.srcH = a.cam.Width, a.cam.Height
	}
	r.advance(from)
}
