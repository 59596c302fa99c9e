package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/capture"
	"aitax/internal/core"
	"aitax/internal/faults"
	"aitax/internal/models"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// Harness is the program a Run measures through.
type Harness uint8

const (
	// HarnessTool is the TFLite benchmark utility run from the command
	// line.
	HarnessTool Harness = iota
	// HarnessWrapper is the benchmark utility inside its Android app
	// wrapper.
	HarnessWrapper
	// HarnessApp is the instrumented application: capture,
	// pre-processing, inference and post-processing on every frame.
	HarnessApp
)

// Run is the key of one measurement: a (model, dtype, delegate,
// threads) configuration on a platform and seed, measured N times
// through one harness after Warmup discarded frames, for the
// application with BGJobs background tenants on BGDelegate, its camera
// preview size, its pre-processing placement, a probe overhead, the
// benchmark utility's C++ standard library and a fault plan.
// Experiments declare the Runs they read; a sweep measures each
// distinct Run once and every experiment renders from the same Sample.
// The aitax facade and command line measure through the same Run:
// Stack builds its stack and MeasureOn measures it.
type Run struct {
	Platform string // soc.SoC name
	Seed     uint64
	Model    string
	DType    tensor.DType
	Delegate tflite.Delegate
	Threads  int // interpreter threads of the benchmark utility; 0 for the app
	N        int // measured runs, or frames for the app
	Harness  Harness
	Warmup   int // the app's discarded cold-start frames; the benchmark utility has none
	BGJobs   int
	// BGDelegate is zero when BGJobs is, so a run without tenants has
	// one key.
	BGDelegate tflite.Delegate
	// PreviewW and PreviewH are the app's camera preview size, zero for
	// the default one.
	PreviewW, PreviewH int
	// PreOnDSP offloads the app's pre-processing to the DSP.
	PreOnDSP bool
	// Probe is the instrumentation probe's fractional compute
	// inflation on accelerator targets; zero disables it.
	Probe float64
	// StdLib is the benchmark utility's C++ standard library.
	StdLib tflite.StdLib
	// Faults is the plan injected into the stack; the zero plan when it
	// injects nothing.
	Faults faults.Plan
}

func (r Run) String() string {
	s := fmt.Sprintf("%s %s seed %d %s-%s %s x%d n%d bg %d %s", [...]string{"tool", "tool-app", "app"}[r.Harness],
		r.Platform, r.Seed, r.Model, r.DType, r.Delegate, r.Threads, r.N, r.BGJobs, r.BGDelegate)
	if r.PreviewW != 0 {
		s += fmt.Sprintf(" preview %dx%d", r.PreviewW, r.PreviewH)
	}
	if r.PreOnDSP {
		s += " pre-dsp"
	}
	if r.Faults != (faults.Plan{}) {
		s += fmt.Sprintf(" faults %+v", r.Faults)
	}
	return s
}

// warmupFrames are the cold-start app frames every sweep measurement
// discards (plan compilation, cache fill).
const warmupFrames = 2

// frames measures r, whose model m is, on a fresh stack and returns its
// per-run breakdowns and a Sample holding what they do not: the
// interpreter's init time and CPU fallback, and the injected fault
// count.
func (r Run) frames(ctx context.Context, m *models.Model, configured *soc.SoC) ([]core.StageTimes, Sample, error) {
	rt, err := r.Stack(r.platform(configured))
	if err != nil {
		return nil, Sample{}, err
	}
	return r.MeasureOn(ctx, rt, m)
}

// Stack builds the fresh stack r runs on, over the platform p, which
// it uses as given, with r's fault plan injected. Every stack the
// package, the aitax facade and the command line build comes from
// here; only dvfs, which governs its scheduler, wires its own over
// platform.
func (r Run) Stack(p *soc.SoC) (*tflite.Runtime, error) {
	rt := tflite.NewStack(p, r.Seed)
	var err error
	rt.Faults, err = faults.New(r.Faults.Resolved(r.Seed))
	return rt, err
}

// platform is a fresh copy of the catalog platform r names, so runs
// share no device state; a name outside the catalog is the configured
// platform's, copied.
func (r Run) platform(configured *soc.SoC) *soc.SoC {
	p, err := soc.PlatformByName(r.Platform)
	if err != nil {
		cp := *configured
		return &cp
	}
	return p
}

// MeasureOn measures r, whose model m is, on the stack rt that Stack
// built.
func (r Run) MeasureOn(ctx context.Context, rt *tflite.Runtime, m *models.Model) ([]core.StageTimes, Sample, error) {
	if r.Harness == HarnessApp {
		a, err := app.New(rt, app.Config{Model: m, DType: r.DType, Delegate: r.Delegate, Streaming: true,
			PreOnDSP: r.PreOnDSP, ProbeOverhead: r.Probe, PreviewW: r.PreviewW, PreviewH: r.PreviewH})
		if err != nil {
			return nil, Sample{}, err
		}
		sts, err := a.Measure(ctx, r.Warmup, r.N, r.BGJobs, r.BGDelegate)
		return sts, facts(a.Interpreter(), rt.Faults), err
	}
	ip, err := rt.NewInterpreter(m, r.DType, tflite.Options{Delegate: r.Delegate, Threads: r.Threads, ProbeOverhead: r.Probe})
	if err != nil {
		return nil, Sample{}, err
	}
	bt := tflite.NewBenchTool(rt, ip)
	bt.AppWrapper, bt.StdLib = r.Harness == HarnessWrapper, r.StdLib
	sts, err := bt.Measure(ctx, r.N)
	return sts, facts(ip, rt.Faults), err
}

// facts is the Sample of what a run's frames do not hold.
func facts(ip *tflite.Interpreter, inj *faults.Injector) Sample {
	return Sample{InitTime: ip.InitTime, FellBack: ip.FellBack(), Injected: inj.InjectedTotal()}
}

// Sample is what the renders read of one measured Run: the mean
// breakdown and every run's end-to-end latency (Fig. 11's
// distributions), the interpreter's init time, whether it fell back to
// the CPU, and how many faults were injected, or the error that stopped
// the measurement. The per-run breakdowns are not kept: a sweep holds
// every Sample until it renders.
type Sample struct {
	Mean     core.StageTimes
	Totals   []time.Duration
	InitTime time.Duration
	FellBack bool
	Injected int
	Err      error
}

// measure runs r and keeps its Sample.
func measure(ctx context.Context, r Run, m *models.Model, configured *soc.SoC) Sample {
	sts, s, err := r.frames(ctx, m, configured)
	if err != nil {
		return Sample{Err: err}
	}
	s.Mean, s.Totals = core.Mean(sts), make([]time.Duration, len(sts))
	for i, st := range sts {
		s.Totals[i] = st.Total
	}
	return s
}

// Planner collects the Runs experiments declare. Each distinct Run gets
// one Sample, which the sweep fills before any experiment renders, so a
// Run declared by several experiments is measured once. Make one with
// newPlanner.
type Planner struct {
	runs     []Run // distinct, in the order first declared
	samples  map[Run]*Sample
	models   map[string]*models.Model // by name; any one built serves
	declared int                      // every declaration, repeats included
}

func newPlanner() *Planner {
	return &Planner{samples: map[Run]*Sample{}, models: map[string]*models.Model{}}
}

// tool declares n runs of the benchmark utility on threads threads,
// through harness h (HarnessTool or HarnessWrapper), and returns the
// Sample they will be measured into.
func (p *Planner) tool(h Harness, pl string, seed uint64, m *models.Model, dt tensor.DType, d tflite.Delegate, threads, n int) *Sample {
	return p.want(Run{Platform: pl, Seed: seed, Model: m.Name, DType: dt, Delegate: d, Threads: threads, N: n, Harness: h}, m)
}

// app declares the application Run r of model m (r's Model, Harness
// and Warmup are set here) and returns the Sample it will be measured into. Runs
// that measure the same frames share one key: a run without tenants
// keys no tenant delegate, the default preview size keys as zero, and a
// plan that injects nothing keys as the zero plan.
func (p *Planner) app(r Run, m *models.Model) *Sample {
	r.Model, r.Harness, r.Warmup = m.Name, HarnessApp, warmupFrames
	if r.BGJobs == 0 {
		r.BGDelegate = 0
	}
	if r.PreviewW == capture.DefaultPreviewW && r.PreviewH == capture.DefaultPreviewH {
		r.PreviewW, r.PreviewH = 0, 0
	}
	if !r.Faults.Enabled() {
		r.Faults = faults.Plan{}
	}
	return p.want(r, m)
}

func (p *Planner) want(r Run, m *models.Model) *Sample {
	p.declared++
	p.models[r.Model] = m
	if s, ok := p.samples[r]; ok {
		return s
	}
	s := &Sample{}
	p.samples[r] = s
	p.runs = append(p.runs, r)
	return s
}
