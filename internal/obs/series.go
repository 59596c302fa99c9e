package obs

import (
	"aitax/internal/core"
	"aitax/internal/telemetry"
)

// Series-name contract shared by the two serving bridges (the
// virtual-time simulator and the wall-clock HTTP frontend) and their
// consumers (dashboard, SLO monitor, JSONL/Perfetto export). Both
// bridges record these exact names into a Recorder, so every consumer
// reads either path identically. AllModels is the cross-model
// aggregate each bridge records alongside the per-model series.
const AllModels = "all"

// ModelSeries is one model's recorder series names, each labelled
// model="…". A harness renders them once per model with SeriesFor and
// records under the resolved strings, so the per-request path builds no
// names.
type ModelSeries struct {
	// Counters: Offered counts arrivals (served + rejected + shed +
	// cancelled) and Served completed requests. Rejected counts
	// admission rejections at a full queue. Shed counts requests the
	// brownout controller turned away by QoS class at admission —
	// deliberate load shedding, kept apart from queue-full rejections so
	// the degradation is attributable. Cancelled counts queued requests
	// whose caller abandoned them before dispatch — removed from the
	// batch, not served, not rejected.
	Offered, Served, Rejected, Shed, Cancelled string
	// Histograms: Latency is the end-to-end latency (ms). Batch is the
	// batch size (one observation per served request, valued at its
	// batch's size), Depth the queue depth at arrival. BatchWait is the
	// time in queue until the batch is flushed (ms) — the batching half
	// of the serving tax — and DispatchWait the flush-to-start wait
	// (ms): contention for the accelerator.
	Latency, Batch, Depth, BatchWait, DispatchWait string
}

// SeriesFor renders model's series names.
func SeriesFor(model string) ModelSeries {
	n := func(base string) string { return telemetry.Labeled(base, "model", model) }
	return ModelSeries{
		Offered: n("offered"), Served: n("served"), Rejected: n("rejected"),
		Shed: n("shed"), Cancelled: n("cancelled"),
		Latency: n("latency_ms"), Batch: n("batch"), Depth: n("depth"),
		BatchWait: n("batch_wait_ms"), DispatchWait: n("dispatch_wait_ms"),
	}
}

// Stages are the Table-III tax-anatomy stages the recorder tracks as
// per-window ms sums, in display order: inference split into its
// framework, FastRPC and kernel sub-stages.
var Stages = []core.Stage{core.StagePre, core.StageFramework, core.StageRPC, core.StageKernel, core.StagePost}

// StageSeries parallels Stages: StageSeries[i] is the time counter of
// Stages[i] (ms summed over the window's served requests), aggregated
// across models.
var StageSeries = func() []string {
	names := make([]string, len(Stages))
	for i, st := range Stages {
		names[i] = telemetry.Labeled("stage_ms", "stage", st.String())
	}
	return names
}()

// ModelHandles is a ModelSeries resolved in one recorder: the handles a
// harness records through, field for field.
type ModelHandles struct {
	Offered, Served, Rejected, Shed, Cancelled     Counter
	Latency, Batch, Depth, BatchWait, DispatchWait Hist
}

// Handles resolves s's series in r, creating them.
func (s ModelSeries) Handles(r *Recorder) ModelHandles {
	return ModelHandles{
		Offered:      r.Counter(s.Offered),
		Served:       r.Counter(s.Served),
		Rejected:     r.Counter(s.Rejected),
		Shed:         r.Counter(s.Shed),
		Cancelled:    r.Counter(s.Cancelled),
		Latency:      r.Hist(s.Latency),
		Batch:        r.Hist(s.Batch),
		Depth:        r.Hist(s.Depth),
		BatchWait:    r.Hist(s.BatchWait),
		DispatchWait: r.Hist(s.DispatchWait),
	}
}
