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

// LatencySeries is the per-model end-to-end latency histogram (ms).
func LatencySeries(model string) string {
	return telemetry.Labeled("latency_ms", "model", model)
}

// OfferedSeries counts arrivals (served + rejected) per model.
func OfferedSeries(model string) string {
	return telemetry.Labeled("offered", "model", model)
}

// ServedSeries counts completed requests per model.
func ServedSeries(model string) string {
	return telemetry.Labeled("served", "model", model)
}

// RejectedSeries counts admission rejections per model.
func RejectedSeries(model string) string {
	return telemetry.Labeled("rejected", "model", model)
}

// ShedSeries counts requests the brownout controller turned away by
// QoS class at admission — deliberate load shedding, kept apart from
// queue-full rejections so the degradation is attributable.
func ShedSeries(model string) string {
	return telemetry.Labeled("shed", "model", model)
}

// CancelledSeries counts queued requests whose caller abandoned them
// before dispatch (context cancellation) — removed from the batch, not
// served, not rejected.
func CancelledSeries(model string) string {
	return telemetry.Labeled("cancelled", "model", model)
}

// BatchSeries is the batch-size histogram (one observation per served
// request, valued at its batch's size).
func BatchSeries(model string) string {
	return telemetry.Labeled("batch", "model", model)
}

// DepthSeries is the queue-depth-at-arrival histogram.
func DepthSeries(model string) string {
	return telemetry.Labeled("depth", "model", model)
}

// BatchWaitSeries is the time-in-queue-until-batch-dispatch histogram
// (ms) — the batching half of the serving tax.
func BatchWaitSeries(model string) string {
	return telemetry.Labeled("batch_wait_ms", "model", model)
}

// DispatchWaitSeries is the dispatch-to-start wait histogram (ms) —
// contention for the accelerator.
func DispatchWaitSeries(model string) string {
	return telemetry.Labeled("dispatch_wait_ms", "model", model)
}

// Stages are the Table-III tax-anatomy stages the recorder tracks as
// per-window ms sums, in display order: inference split into its
// framework, FastRPC and kernel sub-stages.
var Stages = []core.Stage{core.StagePre, core.StageFramework, core.StageRPC, core.StageKernel, core.StagePost}

// StageSeries is the per-stage time counter (ms summed over the
// window's served requests), aggregated across models.
func StageSeries(stage core.Stage) string {
	return telemetry.Labeled("stage_ms", "stage", stage.String())
}
