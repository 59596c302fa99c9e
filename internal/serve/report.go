package serve

import (
	"fmt"
	"slices"
	"strings"
	"time"

	taxcore "aitax/internal/core"
	"aitax/internal/stats"
)

// ms renders a duration in milliseconds for the report's columns.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// modelAgg is one model's (or the aggregate's) report row.
type modelAgg struct {
	name      string
	offered   int
	served    int
	rejected  int
	shed      int
	batches   int
	latencies []time.Duration
	infer     time.Duration
	tax       time.Duration
	batchWait time.Duration
	dispWait  time.Duration
	compute   time.Duration
	batchSum  int
}

func (a *modelAgg) add(o *Outcome) {
	a.offered++
	if o.Shed {
		a.shed++
		return
	}
	if o.Rejected {
		a.rejected++
		return
	}
	a.served++
	a.latencies = append(a.latencies, o.Latency())
	a.infer += o.Stages.Stage[taxcore.StageInference]
	a.tax += o.Tax()
	a.batchWait += o.BatchWait()
	a.dispWait += o.DispatchWait()
	a.compute += o.ComputeTax
	a.batchSum += o.BatchSize
}

func meanMS(total time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return ms(total) / float64(n)
}

// Report renders the load simulation as the deterministic text report
// the -loadgen mode prints: admission and batching counts per model,
// latency percentiles, and the serving-tax anatomy. rampDesc echoes the
// offered ramp (the -ramp flag's value).
func (r *SimResult) Report(cfg Config, rampDesc string) string {
	perModel := make(map[string]*modelAgg, len(cfg.Models))
	var order []*modelAgg
	for _, m := range cfg.Models {
		a := &modelAgg{name: m.Name}
		perModel[m.Name] = a
		order = append(order, a)
	}
	all := &modelAgg{name: "all models"}
	for i := range r.Outcomes {
		o := &r.Outcomes[i]
		perModel[o.Model].add(o)
		all.add(o)
	}
	rows := append([]*modelAgg{}, order...)
	if len(order) > 1 {
		rows = append(rows, all)
	}
	for _, m := range r.Batches {
		perModel[m.Model].batches = m.Batches
		all.batches += m.Batches
	}

	var b strings.Builder
	fmt.Fprintf(&b, "serving: workers %d | window %v | max batch %d | queue depth %d | entry %v | dispatch %v\n",
		cfg.Workers, cfg.BatchWindow, cfg.MaxBatch, cfg.QueueDepth, cfg.Entry, cfg.DispatchCost)
	fmt.Fprintf(&b, "offered: %d requests (ramp %s) | drained at %v virtual\n\n",
		all.offered, rampDesc, r.End.Duration())

	fmt.Fprintf(&b, "%-24s %8s %8s %9s %8s %10s\n",
		"model", "offered", "served", "rejected", "batches", "mean batch")
	for _, a := range rows {
		meanBatch := 0.0
		if a.served > 0 {
			meanBatch = float64(a.batchSum) / float64(a.served)
		}
		fmt.Fprintf(&b, "%-24s %8d %8d %9d %8d %10.2f\n",
			a.name, a.offered, a.served, a.rejected, a.batches, meanBatch)
	}

	fmt.Fprintf(&b, "\nlatency per served request (virtual ms)\n")
	fmt.Fprintf(&b, "%-24s %8s %8s %8s %8s %8s %6s\n",
		"model", "p50", "p90", "p99", "infer", "tax", "tax%")
	for _, a := range rows {
		slices.Sort(a.latencies)
		p50 := stats.NearestRank(a.latencies, 0.50)
		p90 := stats.NearestRank(a.latencies, 0.90)
		p99 := stats.NearestRank(a.latencies, 0.99)
		taxPct := 0.0
		if a.infer+a.tax > 0 {
			taxPct = 100 * float64(a.tax) / float64(a.infer+a.tax)
		}
		fmt.Fprintf(&b, "%-24s %8.3f %8.3f %8.3f %8.3f %8.3f %5.1f%%\n",
			a.name, ms(p50), ms(p90), ms(p99),
			meanMS(a.infer, a.served), meanMS(a.tax, a.served), taxPct)
	}

	fmt.Fprintf(&b, "\nserving-tax anatomy (mean ms per served request)\n")
	fmt.Fprintf(&b, "%-24s %10s %13s %11s %8s\n",
		"model", "batch-wait", "dispatch-wait", "compute-tax", "co-ride")
	for _, a := range rows {
		// co-ride: in-service time serialized behind batch co-riders'
		// inference (total tax minus the named components).
		coRide := a.tax - a.batchWait - a.dispWait - a.compute
		fmt.Fprintf(&b, "%-24s %10.3f %13.3f %11.3f %8.3f\n",
			a.name, meanMS(a.batchWait, a.served), meanMS(a.dispWait, a.served),
			meanMS(a.compute, a.served), meanMS(coRide, a.served))
	}

	rejPct := 0.0
	if all.offered > 0 {
		rejPct = 100 * float64(all.rejected) / float64(all.offered)
	}
	fmt.Fprintf(&b, "\nadmission: %d of %d rejected (%.1f%%)\n", all.rejected, all.offered, rejPct)
	if r.Degradation != nil {
		r.writeDegradation(&b, cfg)
	}
	return b.String()
}
