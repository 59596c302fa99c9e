package tflite

import (
	"context"
	"time"

	"aitax/internal/core"
	"aitax/internal/lab"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/work"
)

// BenchTool models the TFLite command-line benchmark utility and its
// Android-app wrapper (§III-B): random input tensors stand in for data
// capture, pre-processing is negligible (the tensor is already the right
// shape), and each invocation is measured. The app wrapper adds UI
// rendering per result. Each iteration is a core.StageTimes whose
// capture stage is the random input generation; post stays zero.
type BenchTool struct {
	rt *Runtime
	ip *Interpreter

	// StdLib selects the random-generation quirk (§IV-A).
	StdLib StdLib
	// AppWrapper adds the benchmark Android app's UI work per run.
	AppWrapper bool
	// NoiseCeil bounds the per-run OS noise burst (tight distributions
	// for benchmarks, per Fig. 11).
	NoiseCeil time.Duration

	genThread *sched.Thread
	uiThread  *sched.Thread
}

// benchUIBase is the app wrapper's per-run rendering cost.
const benchUIBase = 3 * time.Millisecond

// NewBenchTool wraps an initialized-or-not interpreter; Measure
// initializes it if needed.
func NewBenchTool(rt *Runtime, ip *Interpreter) *BenchTool {
	return &BenchTool{
		rt: rt, ip: ip,
		StdLib:    LibCXX,
		NoiseCeil: 300 * time.Microsecond,
		genThread: rt.Sch.Spawn("bench-gen", sched.BigOnly),
		uiThread:  rt.Sch.Spawn("bench-ui", nil),
	}
}

func (bt *BenchTool) inputElems() int {
	m := bt.ip.Model
	if m.InputW == 0 {
		// Language model: token ids.
		if m.Pre.MaxTokens > 0 {
			return m.Pre.MaxTokens
		}
		return 128
	}
	return m.InputW * m.InputH * 3
}

// preWork is the utility's minimal input staging (a copy into the input
// tensor).
func (bt *BenchTool) preWork() work.Work {
	n := int64(bt.inputElems())
	return work.Work{Ops: n, Bytes: 2 * n * int64(bt.ip.DType.Size()), Vectorizable: true}
}

// run initializes the interpreter (if necessary), performs one warmup,
// then measures n iterations; done receives the per-run samples.
func (bt *BenchTool) run(n int, done func([]core.StageTimes)) {
	r := &benchRun{bt: bt, n: n, done: done, samples: make([]core.StageTimes, 0, n)}
	r.genDone, r.preDone, r.invoked, r.uiDone = r.captured, r.staged, r.inferred, r.rendered
	if bt.ip.initialized {
		r.warmup()
	} else {
		bt.ip.Init(r.warmup)
	}
}

// benchRun is the state of one BenchTool.run. Its callbacks are built
// once, so an iteration allocates nothing here.
type benchRun struct {
	bt      *BenchTool
	n, i    int
	done    func([]core.StageTimes)
	samples []core.StageTimes

	// The iteration in flight.
	s                                  core.StageTimes
	start, preStart, invStart, uiStart sim.Time

	genDone, preDone, uiDone func()
	invoked                  func(Report)
}

// warmup runs the utility's unmeasured invoke, then the iterations.
func (r *benchRun) warmup() { r.bt.ip.Invoke(func(Report) { r.iterate() }) }

// iterate starts iteration r.i, or hands over the samples after the
// last.
func (r *benchRun) iterate() {
	bt := r.bt
	if r.i >= r.n {
		r.done(r.samples)
		return
	}
	r.s = core.StageTimes{}
	r.start = bt.rt.Eng.Now()

	// "Data capture": random tensor generation plus a sliver of OS
	// noise (interrupts, logging).
	genW := RandomInputWork(bt.inputElems(), bt.ip.DType, bt.StdLib)
	genDur := bt.rt.Platform.Big.TimeFor(genW, bt.ip.DType)
	if bt.NoiseCeil > 0 {
		genDur += time.Duration(bt.rt.RNG.Float64() * float64(bt.NoiseCeil))
	}
	bt.genThread.Exec(genDur, r.genDone)
}

func (r *benchRun) captured() {
	bt := r.bt
	r.s.Stage[core.StageCapture] = bt.rt.Eng.Now().Sub(r.start)
	r.preStart = bt.rt.Eng.Now()
	bt.genThread.Exec(bt.rt.Platform.Big.TimeFor(bt.preWork(), bt.ip.DType), r.preDone)
}

func (r *benchRun) staged() {
	bt := r.bt
	r.s.Stage[core.StagePre] = bt.rt.Eng.Now().Sub(r.preStart)
	r.invStart = bt.rt.Eng.Now()
	bt.ip.Invoke(r.invoked)
}

func (r *benchRun) inferred(Report) {
	bt := r.bt
	r.s.Stage[core.StageInference] = bt.rt.Eng.Now().Sub(r.invStart)
	if !bt.AppWrapper {
		r.finish()
		return
	}
	r.uiStart = bt.rt.Eng.Now()
	bt.uiThread.Exec(bt.rt.RNG.Jitter(benchUIBase, 0.15), r.uiDone)
}

func (r *benchRun) rendered() {
	r.s.Stage[core.StageUI] = r.bt.rt.Eng.Now().Sub(r.uiStart)
	r.finish()
}

func (r *benchRun) finish() {
	r.s.Total = r.bt.rt.Eng.Now().Sub(r.start)
	r.samples = append(r.samples, r.s)
	r.i++
	r.iterate()
}

// Measure runs the utility for n measured iterations (see run), drains
// the engine with lab.Drain (which checks ctx and reports the simulated
// time to an enclosing lab job) and returns the samples.
func (bt *BenchTool) Measure(ctx context.Context, n int) ([]core.StageTimes, error) {
	var samples []core.StageTimes
	bt.run(n, func(s []core.StageTimes) { samples = s })
	if err := lab.Drain(ctx, bt.rt.Eng); err != nil {
		return nil, err
	}
	return samples, nil
}
