// Package core implements the paper's central abstraction: the AI tax —
// the time a system spends on tasks that enable ML model execution but
// are not the model execution itself. It provides the Fig. 1 taxonomy
// (algorithms / frameworks / hardware), the stage vocabulary and
// per-run stage times every layer records, their aggregation, and
// report rendering used by the experiment harness and the CLI tools.
package core

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"aitax/internal/stats"
)

// Category is a top-level AI-tax source from Fig. 1.
type Category string

// Fig. 1 categories.
const (
	CategoryAlgorithms Category = "Algorithms"
	CategoryFrameworks Category = "Frameworks"
	CategoryHardware   Category = "Hardware"
)

// Component is a leaf of the Fig. 1 taxonomy.
type Component struct {
	Category Category
	Name     string
	// Detail describes where the overhead comes from.
	Detail string
}

// Taxonomy returns the Fig. 1 overhead tree.
func Taxonomy() []Component {
	return []Component{
		{CategoryAlgorithms, "Data Capture", "sensor acquisition, buffer handling, bitmap formatting"},
		{CategoryAlgorithms, "Pre-processing", "scale, crop, normalize, rotate, type conversion, tokenization"},
		{CategoryAlgorithms, "Post-processing", "topK, dequantization, NMS, keypoints, mask flattening"},
		{CategoryFrameworks, "Drivers", "vendor driver op coverage and kernel quality"},
		{CategoryFrameworks, "Offload", "partition handoffs, FastRPC crossings, cache maintenance"},
		{CategoryFrameworks, "Scheduling", "device assignment, CPU fallback, partition planning"},
		{CategoryHardware, "Multitenancy", "contention for the single DSP / CPU cores"},
		{CategoryHardware, "Run-to-run Variability", "OS scheduling, interrupts, GC, sensor jitter"},
		{CategoryHardware, "Cold Start", "one-time accelerator session setup and model compilation"},
	}
}

// RenderTaxonomy draws the Fig. 1 tree as text.
func RenderTaxonomy() string {
	var b strings.Builder
	b.WriteString("AI Tax taxonomy (Fig. 1)\n")
	var last Category
	for _, c := range Taxonomy() {
		if c.Category != last {
			fmt.Fprintf(&b, "%s\n", c.Category)
			last = c.Category
		}
		fmt.Fprintf(&b, "  %-24s %s\n", c.Name, c.Detail)
	}
	return b.String()
}

// Stage identifies one node of the application's frame-processing graph,
// the paper's Table III anatomy. A camera frame traverses the whole
// graph; a served request enters mid-graph (its payload arrives over the
// wire, already captured) and exits after post-processing (the server
// serializes a response instead of rendering UI). The benchmark utility
// fills capture (random input generation), pre and inference, plus UI
// in its app wrapper.
type Stage int

// The pipeline stages in graph order, then the sub-stages of inference.
const (
	StageCapture Stage = iota
	StagePre
	StageInference
	StagePost
	StageUI
	// NumStages is the number of stages, the length of StageTimes.Stage.
	NumStages
)

// The sub-stages of the inference stage, read with StageTimes.Of: the
// framework's own time (interpreter, partition handoffs, scheduling),
// the FastRPC crossings' overhead, and the kernel's execution.
const (
	StageFramework Stage = NumStages + iota
	StageRPC
	StageKernel
)

// stageNames spells every stage and sub-stage the one way spans, metric
// series, the -entry flag and the fleet report print it. Outputs that
// spell a stage otherwise: the FastRPC spans split StageRPC into
// "rpc-down" and "rpc-up" around the kernel span; a pre-processing
// pipeline offloaded to the DSP runs its kernel as a "pre-dsp" span;
// fleet's "infer" row is inference minus the invoke's FastRPC time, so
// it includes framework time, while the serving "infer" series is
// kernel time alone.
var stageNames = [...]string{"capture", "pre", "inference", "post", "ui", "framework", "rpc", "infer"}

// String names the stage as it appears in spans and reports.
func (s Stage) String() string {
	if s >= 0 && int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// ErrUnknownStage is wrapped by every ParseStage error.
var ErrUnknownStage = errors.New("unknown stage")

// ParseStage resolves a stage name ("capture", "pre", "inference",
// "post", "ui") to its Stage. A failed lookup wraps ErrUnknownStage.
func ParseStage(name string) (Stage, error) {
	for s := StageCapture; s < NumStages; s++ {
		if stageNames[s] == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("app: %w %q (capture|pre|inference|post|ui)", ErrUnknownStage, name)
}

// StageTimes is one run's stage anatomy: an app frame, a served request's
// segment of the graph, or one benchmark-utility iteration. Stages a run
// never entered stay zero.
type StageTimes struct {
	Stage [NumStages]time.Duration
	// Total is the run's end-to-end latency.
	Total time.Duration
	// Retry is the inference stage's injected-fault recovery time
	// (failed FastRPC attempts + backoff waits). It is contained in the
	// inference stage but is tax, not useful compute. Retries in other
	// stages (a PreOnDSP pipeline) are already inside those stages' times.
	Retry time.Duration
	// Fallback is delegate teardown + CPU re-init time paid inside the
	// inference stage when the delegate died mid-run.
	Fallback time.Duration
	// RPC is what the inference stage's FastRPC calls charged (session
	// setup, transport including cache flush, and DSP queue) and Exec
	// their DSP hold, both as the invoke recorded them. Both stay zero
	// when inference never crossed to the DSP.
	RPC  time.Duration
	Exec time.Duration
}

// Tax returns the non-inference share of the run (the AI tax). Fault
// recovery that happened inside the inference stage — retries and
// delegate fallback — is tax too, so it is added back; on fault-free
// runs this is exactly Total - inference.
func (t StageTimes) Tax() time.Duration {
	return t.Total - t.Stage[StageInference] + t.Retry + t.Fallback
}

// Of returns the time of stage s, a stage or a sub-stage of inference.
// Without an RPC/Exec split the whole inference stage is kernel time;
// with one, framework time is what the split leaves of inference,
// clamped at zero.
func (t StageTimes) Of(s Stage) time.Duration {
	if s < NumStages {
		return t.Stage[s]
	}
	if t.RPC == 0 && t.Exec == 0 {
		t.Exec = t.Stage[StageInference]
	}
	switch s {
	case StageFramework:
		return max(t.Stage[StageInference]-t.RPC-t.Exec, 0)
	case StageRPC:
		return t.RPC
	}
	return t.Exec
}

// Add returns the field-by-field sum of t and u.
func (t StageTimes) Add(u StageTimes) StageTimes {
	for s, d := range u.Stage {
		t.Stage[s] += d
	}
	t.Total += u.Total
	t.Retry += u.Retry
	t.Fallback += u.Fallback
	t.RPC += u.RPC
	t.Exec += u.Exec
	return t
}

// Div returns t with every field divided by n in integer nanoseconds.
func (t StageTimes) Div(n int) StageTimes {
	k := time.Duration(n)
	for s := range t.Stage {
		t.Stage[s] /= k
	}
	t.Total /= k
	t.Retry /= k
	t.Fallback /= k
	t.RPC /= k
	t.Exec /= k
	return t
}

// Mean averages runs field by field in integer nanoseconds (zero for no
// runs). Its Total is the mean of the per-run totals, which can differ by
// a few nanoseconds of rounding from the sum of the stage means.
func Mean(runs []StageTimes) StageTimes {
	var m StageTimes
	if len(runs) == 0 {
		return m
	}
	for _, r := range runs {
		m = m.Add(r)
	}
	return m.Div(len(runs))
}

// Breakdown is an aggregated per-stage latency account over a run.
type Breakdown struct {
	N int
	// Mean holds the mean stage, total and fault-recovery times.
	Mean StageTimes
	// Distribution of end-to-end latency across the run (Fig. 11).
	E2E stats.Summary
}

// FromFrames aggregates instrumented frames into mean stage times and
// the end-to-end latency distribution.
func FromFrames(frames []StageTimes) Breakdown {
	b := Breakdown{N: len(frames), Mean: Mean(frames)}
	if len(frames) == 0 {
		return b
	}
	e2e := stats.NewSample()
	for _, f := range frames {
		e2e.Add(ms(f.Total))
	}
	b.E2E = e2e.Summarize()
	return b
}

// Total returns the sum of the stage means (not Mean.Total, the mean of
// the per-frame totals).
func (b Breakdown) Total() time.Duration {
	var t time.Duration
	for _, d := range b.Mean.Stage {
		t += d
	}
	return t
}

// Tax returns the mean non-inference time. Fault recovery that happened
// inside the inference stage (retries, delegate fallback) is tax too;
// on fault-free runs this is exactly Total - the inference mean.
func (b Breakdown) Tax() time.Duration {
	return b.Total() - b.Mean.Stage[StageInference] + b.Mean.Retry + b.Mean.Fallback
}

// TaxFraction returns the AI-tax share of end-to-end time.
func (b Breakdown) TaxFraction() float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b.Tax()) / float64(t)
}

// renderLabels are the stage names of the breakdown table.
var renderLabels = [NumStages]string{"data capture", "pre-processing", "model execution", "post-processing", "ui/render"}

// Render draws the breakdown as an aligned table.
func (b Breakdown) Render() string {
	var sb strings.Builder
	total := b.Total()
	fmt.Fprintf(&sb, "stage breakdown over %d frames:\n", b.N)
	for s, d := range b.Mean.Stage {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(d) / float64(total)
		}
		fmt.Fprintf(&sb, "  %-18s %10.2f ms  %5.1f%%\n", renderLabels[s], ms(d), pct)
	}
	if b.Mean.Retry > 0 || b.Mean.Fallback > 0 {
		// Only fault-injected runs grow this line, so fault-free output
		// stays byte-identical.
		fmt.Fprintf(&sb, "  %-18s %10.2f ms  (retry %.2f ms, fallback %.2f ms, inside inference)\n",
			"fault recovery", ms(b.Mean.Retry+b.Mean.Fallback), ms(b.Mean.Retry), ms(b.Mean.Fallback))
	}
	fmt.Fprintf(&sb, "  %-18s %10.2f ms\n", "end-to-end", ms(total))
	fmt.Fprintf(&sb, "  AI tax: %.2f ms (%.1f%% of end-to-end)\n", ms(b.Tax()), 100*b.TaxFraction())
	return sb.String()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
