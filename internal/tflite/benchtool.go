package tflite

import (
	"context"
	"time"

	"aitax/internal/lab"
	"aitax/internal/sched"
	"aitax/internal/work"
)

// BenchTool models the TFLite command-line benchmark utility and its
// Android-app wrapper (§III-B): random input tensors stand in for data
// capture, pre-processing is negligible (the tensor is already the right
// shape), and each invocation is measured. The app wrapper adds UI
// rendering per result.
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

// RunSample is one measured benchmark iteration.
type RunSample struct {
	DataCapture time.Duration // random input generation
	Pre         time.Duration
	Inference   time.Duration
	UI          time.Duration
	Total       time.Duration
}

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
func (bt *BenchTool) run(n int, done func([]RunSample)) {
	samples := make([]RunSample, 0, n)
	big := &bt.rt.Platform.Big

	var iterate func(i int)
	iterate = func(i int) {
		if i >= n {
			done(samples)
			return
		}
		var s RunSample
		start := bt.rt.Eng.Now()

		// "Data capture": random tensor generation plus a sliver of OS
		// noise (interrupts, logging).
		genW := RandomInputWork(bt.inputElems(), bt.ip.DType, bt.StdLib)
		genDur := big.TimeFor(genW, bt.ip.DType)
		if bt.NoiseCeil > 0 {
			genDur += time.Duration(bt.rt.RNG.Float64() * float64(bt.NoiseCeil))
		}
		bt.genThread.Exec(genDur, func() {
			s.DataCapture = bt.rt.Eng.Now().Sub(start)

			preStart := bt.rt.Eng.Now()
			bt.genThread.Exec(big.TimeFor(bt.preWork(), bt.ip.DType), func() {
				s.Pre = bt.rt.Eng.Now().Sub(preStart)

				invStart := bt.rt.Eng.Now()
				bt.ip.Invoke(func(Report) {
					s.Inference = bt.rt.Eng.Now().Sub(invStart)

					finish := func() {
						s.Total = bt.rt.Eng.Now().Sub(start)
						samples = append(samples, s)
						iterate(i + 1)
					}
					if bt.AppWrapper {
						uiStart := bt.rt.Eng.Now()
						uiDur := bt.rt.RNG.Jitter(benchUIBase, 0.15)
						bt.uiThread.Exec(uiDur, func() {
							s.UI = bt.rt.Eng.Now().Sub(uiStart)
							finish()
						})
					} else {
						finish()
					}
				})
			})
		})
	}

	startRuns := func() {
		// Warmup run, as the utility performs before measuring.
		bt.ip.Invoke(func(Report) { iterate(0) })
	}
	if bt.ip.initialized {
		startRuns()
	} else {
		bt.ip.Init(startRuns)
	}
}

// Measure runs the utility for n measured iterations (see run), drains
// the engine with lab.Drain (which checks ctx and reports the simulated
// time to an enclosing lab job) and returns the samples.
func (bt *BenchTool) Measure(ctx context.Context, n int) ([]RunSample, error) {
	var samples []RunSample
	bt.run(n, func(s []RunSample) { samples = s })
	if err := lab.Drain(ctx, bt.rt.Eng); err != nil {
		return nil, err
	}
	return samples, nil
}
