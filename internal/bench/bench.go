// Package bench is the experiment harness: one experiment per table and
// figure of the paper's evaluation, each regenerating the corresponding
// rows/series on the simulated platform. The aitax experiments command
// and the root-level Go benchmarks drive this package.
package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"aitax/internal/faults"
	"aitax/internal/soc"
)

// DefaultSeed is the seed an unset Config gets. Every number in the
// committed reference results was generated with it.
const DefaultSeed uint64 = 42

// Config parameterizes an experiment run. The zero value is usable:
// every experiment calls Defaults before reading it.
type Config struct {
	// Platform defaults to the Google Pixel 3 (SD845), the platform the
	// paper reports on.
	Platform *soc.SoC
	// Seed drives all stochastic behaviour; a fixed seed regenerates
	// byte-identical results. A zero Seed with SeedSet false selects
	// DefaultSeed; set SeedSet to request seed 0 itself.
	Seed uint64
	// SeedSet marks Seed as explicit. Without it a zero Seed is
	// indistinguishable from "unset" and is replaced by DefaultSeed.
	SeedSet bool
	// Runs is the per-configuration iteration count. The paper uses 500;
	// smaller values trade precision for speed. Defaults to 50.
	Runs int
	// Faults, when enabled, adds a "custom" scenario driven by this plan
	// to the faults experiment; every other experiment ignores it. The
	// zero plan (the default) keeps all output byte-identical.
	Faults faults.Plan
}

// Defaults returns a copy with every unset field filled with its
// documented default: the Pixel 3 platform, DefaultSeed (unless SeedSet
// or a non-zero Seed marks the seed explicit), and 50 runs.
func (c Config) Defaults() Config {
	if c.Platform == nil {
		c.Platform = soc.Pixel3()
	}
	if !c.SeedSet {
		if c.Seed == 0 {
			c.Seed = DefaultSeed
		}
		c.SeedSet = true
	}
	if c.Runs == 0 {
		c.Runs = 50
	}
	return c
}

// Result is one regenerated table or figure.
type Result struct {
	ID    string // e.g. "table1", "fig5"
	Title string
	// Headers and Rows form the main table.
	Headers []string
	Rows    [][]string
	// Blocks are pre-rendered text artifacts (timelines, histograms).
	Blocks []string
	// Notes record shape checks and paper-vs-measured commentary.
	Notes []string
	// err is why the experiment produced no artifact (see Err).
	err error
}

// Err is the error that stopped the experiment: a panic, a
// cancellation or a negative Runs. Such a Result carries only a
// "setup failed" note.
func (r *Result) Err() error { return r.err }

// AddRow appends a table row from mixed values.
func (r *Result) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	r.Rows = append(r.Rows, row)
}

// Render draws the result as aligned text.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	if len(r.Headers) > 0 {
		widths := make([]int, len(r.Headers))
		for i, h := range r.Headers {
			widths[i] = len(h)
		}
		for _, row := range r.Rows {
			for i, c := range row {
				if i < len(widths) && len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, c := range cells {
				if i < len(widths) {
					fmt.Fprintf(&b, "%-*s  ", widths[i], c)
				} else {
					b.WriteString(c)
				}
			}
			b.WriteString("\n")
		}
		writeRow(r.Headers)
		sep := make([]string, len(r.Headers))
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
		for _, row := range r.Rows {
			writeRow(row)
		}
	}
	for _, blk := range r.Blocks {
		b.WriteString("\n")
		b.WriteString(blk)
		if !strings.HasSuffix(blk, "\n") {
			b.WriteString("\n")
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Experiment is a runnable table/figure regenerator.
type Experiment struct {
	ID    string
	Title string
	// Plan declares the Runs the experiment reads, given a defaulted
	// Config, and returns its render, called once they are measured.
	// Every experiment function reads its Config as defaulted.
	Plan func(Config, *Planner) func() *Result
}

// own adapts an experiment that declares no Runs: it builds its own
// stacks when it renders.
func own(f func(Config) *Result) func(Config, *Planner) func() *Result {
	return func(cfg Config, _ *Planner) func() *Result {
		return func() *Result { return f(cfg) }
	}
}

// RunCtx is the sweep of one experiment at parallelism 1: it measures
// the experiment's Runs one after another on the calling goroutine and
// renders it. A context cancelled before or during the measurements
// returns its error, as do a panic and a negative cfg.Runs.
func (e Experiment) RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	res, _ := RunExperimentsCtx(ctx, []Experiment{e}, cfg, 1, nil)
	if err := res[0].Err(); err != nil {
		return nil, err
	}
	return res[0], nil
}

// Run is RunCtx under context.Background(); it returns nil for a
// negative cfg.Runs.
func (e Experiment) Run(cfg Config) *Result {
	res, _ := e.RunCtx(context.Background(), cfg)
	return res
}

// Experiments lists every experiment in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Benchmark list: models, pipelines, support matrix", own(TableI)},
		{"table2", "Hardware platforms", own(TableII)},
		{"fig3", "CLI benchmark vs benchmark app vs application (CPU)", Figure3},
		{"fig4a", "Data capture & pre-processing vs inference (absolute)", Figure4a},
		{"fig4b", "Data capture & pre-processing relative to inference", Figure4b},
		{"fig5", "EfficientNet-Lite0 quantized: NNAPI degradation", Figure5},
		{"fig6", "Execution profile of the Fig. 5 runs", own(Figure6)},
		{"fig7", "FastRPC call flow costs", own(Figure7)},
		{"fig8", "Offload overhead amortization over consecutive inferences", own(Figure8)},
		{"fig9", "App breakdown vs background NNAPI(DSP) inferences", Figure9},
		{"fig10", "App breakdown vs background CPU inferences", Figure10},
		{"fig11", "Latency distribution: application vs benchmark", Figure11},
		{"coldstart", "Cold start: first vs warm accelerated inference", own(ColdStart)},
		{"probe", "Probe effect of driver instrumentation", own(ProbeEffect)},
		// Extensions beyond the paper's artifacts.
		{"models", "Model zoo inventory (reconstruction scale)", own(ModelsInventory)},
		{"platforms", "MobileNet v1 across Snapdragon generations", PlatformSweep},
		{"prefs", "NNAPI execution preferences: latency vs energy", own(Preferences)},
		{"thermal", "Latency drift under sustained load", Thermal},
		{"ablation-partitions", "Fig. 5 ablation: partition-shatter threshold", PartitionAblation},
		{"init", "Model initialization time by delegate", own(InitTimes)},
		{"stdlib", "Random input generation cost by C++ standard library", own(StdlibQuirk)},
		{"frameworks", "Framework comparison: CPU vs Hexagon vs NNAPI vs SNPE", Frameworks},
		{"dvfs", "DVFS cold ramp on consecutive CPU inferences", own(DVFSRamp)},
		{"post", "Post-processing latency by task", PostProcessing},
		{"fusion", "Activation-fusion ablation", own(FusionAblation)},
		{"preoffload", "Pre-processing placement: CPU vs DSP offload", PreOffload},
		{"driverfix", "Fig. 5 counterfactual: fixed vendor driver", own(DriverFix)},
		{"resolution", "Camera preview resolution vs AI tax", ResolutionSweep},
		{"faults", "Fault tolerance: offload failures, retries, CPU fallback", FaultTolerance},
	}
}

// ErrUnknownExperiment is the sentinel ByID wraps when no experiment
// matches; callers branch with errors.Is instead of matching message
// text.
var ErrUnknownExperiment = errors.New("bench: unknown experiment")

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w %q (have %s)", ErrUnknownExperiment, id, strings.Join(IDs(), ", "))
}

// IDs lists experiment ids in order.
func IDs() []string {
	var out []string
	for _, e := range Experiments() {
		out = append(out, e.ID)
	}
	return out
}
