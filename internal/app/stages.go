package app

import (
	"fmt"
	"strconv"
	"time"

	"aitax/internal/capture"
	"aitax/internal/core"
	"aitax/internal/preproc"
	"aitax/internal/sim"
	"aitax/internal/telemetry"
	"aitax/internal/tflite"
)

// frameRun is one request's traversal of the stage graph (core.Stage):
// the in-flight stage times, the enclosing span, and the capture state
// later stages consume. A full camera frame and a mid-graph served
// request share this carrier; stages a run never enters stay zero.
type frameRun struct {
	a     *App
	st    core.StageTimes
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
	to         core.Stage
	done       func(core.StageTimes)
}

// advance dispatches the run to stage s, or finishes it when the run's
// segment is exhausted.
func (r *frameRun) advance(s core.Stage) {
	if s > r.to || s > core.StageUI {
		r.finish()
		return
	}
	switch s {
	case core.StageCapture:
		r.a.stageCapture(r)
	case core.StagePre:
		r.a.stagePre(r)
	case core.StageInference:
		r.a.stageInference(r)
	case core.StagePost:
		r.a.stagePost(r)
	case core.StageUI:
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
	capSpan := a.rt.Tracer.Start(core.StageCapture.String(), "capture", telemetry.TrackCPU, r.frame)
	if r.spec.Tokenize {
		a.preThread.Exec(a.rt.RNG.Jitter(200*time.Microsecond, 0.2), func() {
			r.st.Stage[core.StageCapture] = a.rt.Eng.Now().Sub(r.start)
			capSpan.End()
			r.advance(core.StagePre)
		})
		return
	}
	a.cam.Capture(func(f *capture.Frame) {
		r.capFrame = f
		afterFusion := func() {
			conv := a.stageDuration(a.cam.ConversionWork(), false)
			a.camThread.Exec(conv, func() {
				r.st.Stage[core.StageCapture] = a.rt.Eng.Now().Sub(r.start)
				capSpan.End()
				r.advance(core.StagePre)
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
	preSpan := a.rt.Tracer.Start(core.StagePre.String(), "preproc", telemetry.TrackCPU, r.frame)
	next := func() {
		if a.cfg.RealPreprocess && r.capFrame != nil {
			a.runRealPreprocess(r.capFrame, r.spec)
		}
		r.st.Stage[core.StagePre] = a.rt.Eng.Now().Sub(preStart)
		preSpan.End()
		r.advance(core.StageInference)
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
	infSpan := a.rt.Tracer.Start(core.StageInference.String(), "app", telemetry.TrackCPU, r.frame)
	a.ip.InvokeTraced(infSpan, func(rep tflite.Report) {
		r.st.Stage[core.StageInference] = a.rt.Eng.Now().Sub(invStart)
		r.st.Retry = rep.Retry
		r.st.Fallback = rep.FallbackCost
		infSpan.End()
		r.advance(core.StagePost)
	})
}

// stagePost runs task-specific post-processing.
func (a *App) stagePost(r *frameRun) {
	postStart := a.rt.Eng.Now()
	postSpan := a.rt.Tracer.Start(core.StagePost.String(), "postproc", telemetry.TrackCPU, r.frame)
	postW := a.ip.Model.PostWork(a.ip.DType)
	a.postThread.Exec(a.stageDuration(postW, true), func() {
		if a.cfg.RealPostprocess {
			a.runRealPostprocess()
		}
		r.st.Stage[core.StagePost] = a.rt.Eng.Now().Sub(postStart)
		postSpan.End()
		r.advance(core.StageUI)
	})
}

// stageUI renders the result (plus the periodic GC pause).
func (a *App) stageUI(r *frameRun) {
	uiStart := a.rt.Eng.Now()
	uiSpan := a.rt.Tracer.Start(core.StageUI.String(), "app", telemetry.TrackCPU, r.frame)
	ui := a.rt.RNG.Jitter(uiBase, uiJitterCV)
	if r.frameNo%gcPeriod == 0 {
		ui += gcPause
		uiSpan.SetAttr("gc", "1")
		a.rt.Metrics.Inc("aitax_gc_pauses_total")
	}
	a.uiThread.Exec(ui, func() {
		r.st.Stage[core.StageUI] = a.rt.Eng.Now().Sub(uiStart)
		uiSpan.End()
		r.advance(core.StageUI + 1)
	})
}

// ProcessRange runs the stage subgraph [from, to] and reports the stage
// breakdown of the stages that actually ran (the rest stay zero, so
// StageTimes.Tax remains exact for the segment). A served request enters
// at StagePre (its payload needs the pixel pipeline) or StageInference
// (the payload is a ready tensor) and exits after StagePost — the server
// serializes a response instead of rendering UI.
func (a *App) ProcessRange(from, to core.Stage, done func(core.StageTimes)) {
	if from < core.StageCapture || to > core.StageUI || from > to {
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
