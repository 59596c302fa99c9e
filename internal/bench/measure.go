package bench

import (
	"context"
	"fmt"
	"time"

	"aitax/internal/app"
	"aitax/internal/core"
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
// through one harness, for the application with BGJobs background
// tenants on BGDelegate. Experiments declare the Runs they read; a
// sweep measures each distinct Run once and every experiment renders
// from the same Sample.
type Run struct {
	Platform string // soc.SoC name
	Seed     uint64
	Model    string
	DType    tensor.DType
	Delegate tflite.Delegate
	Threads  int // interpreter threads of the benchmark utility; 0 for the app
	N        int // measured runs, or frames for the app
	Harness  Harness
	BGJobs   int
	// BGDelegate is zero when BGJobs is, so a run without tenants has
	// one key.
	BGDelegate tflite.Delegate
}

func (r Run) String() string {
	return fmt.Sprintf("%s %s seed %d %s-%s %s x%d n%d bg %d %s", [...]string{"tool", "tool-app", "app"}[r.Harness],
		r.Platform, r.Seed, r.Model, r.DType, r.Delegate, r.Threads, r.N, r.BGJobs, r.BGDelegate)
}

// warmupFrames are the cold-start app frames every measurement discards
// (plan compilation, cache fill).
const warmupFrames = 2

// frames measures r, whose model m is, on a fresh stack and returns its
// per-run breakdowns. The stack runs on a fresh copy of the catalog platform
// r names, so runs share no device state; a name outside the catalog
// is the configured platform's, copied.
func (r Run) frames(ctx context.Context, m *models.Model, configured *soc.SoC) ([]core.StageTimes, error) {
	p, err := soc.PlatformByName(r.Platform)
	if err != nil {
		cp := *configured
		p = &cp
	}
	rt := tflite.NewStack(p, r.Seed)
	if r.Harness == HarnessApp {
		a, err := app.New(rt, app.Config{Model: m, DType: r.DType, Delegate: r.Delegate, Streaming: true})
		if err != nil {
			return nil, err
		}
		return a.Measure(ctx, warmupFrames, r.N, r.BGJobs, r.BGDelegate)
	}
	ip, err := rt.NewInterpreter(m, r.DType, tflite.Options{Delegate: r.Delegate, Threads: r.Threads})
	if err != nil {
		return nil, err
	}
	bt := tflite.NewBenchTool(rt, ip)
	bt.AppWrapper = r.Harness == HarnessWrapper
	return bt.Measure(ctx, r.N)
}

// Sample is what the renders read of one measured Run: the mean
// breakdown and every run's end-to-end latency (Fig. 11's
// distributions), or the error that stopped the measurement. The
// per-run breakdowns are not kept: a sweep holds every Sample until it
// renders.
type Sample struct {
	Mean   core.StageTimes
	Totals []time.Duration
	Err    error
}

// measure runs r and keeps its Sample.
func measure(ctx context.Context, r Run, m *models.Model, configured *soc.SoC) Sample {
	sts, err := r.frames(ctx, m, configured)
	if err != nil {
		return Sample{Err: err}
	}
	s := Sample{Mean: core.Mean(sts), Totals: make([]time.Duration, len(sts))}
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

// app declares n steady application frames with bgJobs background
// tenants on bgDelegate, and returns the Sample they will be measured
// into.
func (p *Planner) app(pl string, seed uint64, m *models.Model, dt tensor.DType, d tflite.Delegate, n, bgJobs int, bgDelegate tflite.Delegate) *Sample {
	if bgJobs == 0 {
		bgDelegate = 0
	}
	return p.want(Run{Platform: pl, Seed: seed, Model: m.Name, DType: dt, Delegate: d, N: n, Harness: HarnessApp,
		BGJobs: bgJobs, BGDelegate: bgDelegate}, m)
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
