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

// The pipeline stages in graph order.
const (
	StageCapture Stage = iota
	StagePre
	StageInference
	StagePost
	StageUI
	// NumStages is the number of stages, the length of StageTimes.Stage.
	NumStages
)

// stageNames are the stages as they appear in spans, metric series and
// the -entry flag.
var stageNames = [NumStages]string{"capture", "pre", "inference", "post", "ui"}

// String names the stage as it appears in spans and reports.
func (s Stage) String() string {
	if s >= 0 && s < NumStages {
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
}

// Tax returns the non-inference share of the run (the AI tax). Fault
// recovery that happened inside the inference stage — retries and
// delegate fallback — is tax too, so it is added back; on fault-free
// runs this is exactly Total - inference.
func (t StageTimes) Tax() time.Duration {
	return t.Total - t.Stage[StageInference] + t.Retry + t.Fallback
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
		for s, d := range r.Stage {
			m.Stage[s] += d
		}
		m.Total += r.Total
		m.Retry += r.Retry
		m.Fallback += r.Fallback
	}
	n := time.Duration(len(runs))
	for s := range m.Stage {
		m.Stage[s] /= n
	}
	m.Total /= n
	m.Retry /= n
	m.Fallback /= n
	return m
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
