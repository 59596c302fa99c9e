package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/stats"
	"aitax/internal/trace"
)

// Everything this file prints derives only from exactly-mergeable state:
// integer counts, exact extremes, bucket-interpolated quantiles, and
// fixed-point regression sums. Float sums and means are deliberately
// absent — float addition is not associative, so a sum could differ in
// its last bit between shard groupings and break the byte-identical
// report contract. Run-shape facts that legitimately vary (-parallel,
// cache hit counts) belong on stderr, never in this output.

// WriteReport renders the population report. Byte-identical for a given
// (catalog, devices, models, dtype, delegate, seed) at any -parallel
// and any -shards.
func WriteReport(w io.Writer, r *Result) error {
	bw := &errWriter{w: w}
	names := make([]string, len(r.Models))
	for i, m := range r.Models {
		names[i] = m.Name
	}
	bw.printf("aitax fleet: %d devices, model mix [%s]\n", r.Devices, strings.Join(names, ", "))
	bw.printf("population AI-tax anatomy by tier (per-frame shares, percent)\n")

	for _, tier := range soc.Tiers() {
		writeTier(bw, tier.String(), r.Merged.Tiers[tier])
	}
	writeTier(bw, "all", r.Merged.All())
	return bw.err
}

// writeTier renders one tier block.
func writeTier(bw *errWriter, name string, a *TierAgg) {
	bw.printf("\n== tier %s ==\n", name)
	if a.Devices == 0 {
		bw.printf("devices 0\n")
		return
	}
	bw.printf("devices %d  frames %d\n", a.Devices, a.Frames)
	bw.printf("frame total ms   %s\n", histLine(a.Total))
	bw.printf("tax share %%      %s\n", histLine(a.Tax))
	bw.printf("stage share %%        p50      p90      p99\n")
	for i, s := range reportStages {
		h := a.Stage[i]
		bw.printf("  %-10s %9.3f%9.3f%9.3f\n",
			s, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
	}
	fit := a.Reg.Fit()
	bw.printf("tax vs perf: slope %.4f %%/x  intercept %.4f %%  r2 %.4f  n %d\n",
		fit.Slope, fit.Intercept, fit.R2, a.Reg.N())
}

// histLine formats a histogram's exact-mergeable summary fields.
func histLine(h *stats.Histogram) string {
	return fmt.Sprintf("count %d  min %.3f  max %.3f  p50 %.3f  p90 %.3f  p99 %.3f",
		h.Count(), h.Min(), h.Max(),
		h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99))
}

// errWriter keeps the printf cascade readable: first error wins.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}

// tierRow is a population JSONL summary row.
type tierRow struct {
	Kind    string  `json:"kind"`
	Tier    string  `json:"tier"`
	Devices int64   `json:"devices"`
	Frames  int64   `json:"frames"`
	TaxP50  float64 `json:"tax_p50_pct"`
	TaxP90  float64 `json:"tax_p90_pct"`
	TaxP99  float64 `json:"tax_p99_pct"`
	Slope   float64 `json:"tax_perf_slope"`
	Icept   float64 `json:"tax_perf_intercept"`
	R2      float64 `json:"tax_perf_r2"`
}

// stageRow is a per-(tier, stage) JSONL distribution row. No sums: only
// exactly-mergeable fields are exported (see the file comment).
type stageRow struct {
	Kind  string  `json:"kind"`
	Tier  string  `json:"tier"`
	Stage string  `json:"stage"`
	Count int64   `json:"count"`
	Min   float64 `json:"min_pct"`
	Max   float64 `json:"max_pct"`
	P50   float64 `json:"p50_pct"`
	P90   float64 `json:"p90_pct"`
	P99   float64 `json:"p99_pct"`
}

// WriteJSONL streams the population distributions as one JSON object
// per line — same byte-identity contract as the report.
func WriteJSONL(w io.Writer, r *Result) error {
	enc := json.NewEncoder(w)
	emit := func(name string, a *TierAgg) error {
		if a.Devices == 0 {
			return nil
		}
		fit := a.Reg.Fit()
		if err := enc.Encode(tierRow{
			Kind: "tier", Tier: name, Devices: a.Devices, Frames: a.Frames,
			TaxP50: a.Tax.Quantile(0.50), TaxP90: a.Tax.Quantile(0.90), TaxP99: a.Tax.Quantile(0.99),
			Slope: fit.Slope, Icept: fit.Intercept, R2: fit.R2,
		}); err != nil {
			return err
		}
		for i, s := range reportStages {
			h := a.Stage[i]
			if err := enc.Encode(stageRow{
				Kind: "stage", Tier: name, Stage: s.String(),
				Count: h.Count(), Min: h.Min(), Max: h.Max(),
				P50: h.Quantile(0.50), P90: h.Quantile(0.90), P99: h.Quantile(0.99),
			}); err != nil {
				return err
			}
		}
		return nil
	}
	for _, tier := range soc.Tiers() {
		if err := emit(tier.String(), r.Merged.Tiers[tier]); err != nil {
			return err
		}
	}
	return emit("all", r.Merged.All())
}

// WriteCounters exports the run's convergence trail as Chrome trace
// counters: after each shard merges (submission order), the cumulative
// population tax quantiles are sampled. Loading the file shows the
// estimate settling as the fleet accumulates — flat lines mean the
// sample is already representative.
func WriteCounters(w io.Writer, r *Result) error {
	rec := trace.NewChromeRecorder()
	rec.SetProcessName(0, "aitax-fleet")
	cum := NewShardAgg()
	for s, agg := range r.PerShard {
		cum.Merge(agg)
		at := sim.Time(s+1) * sim.Time(1e6) // one virtual ms per shard
		all := cum.All()
		if all.Frames == 0 {
			continue
		}
		rec.AddCounter("fleet tax p50 %", at, all.Tax.Quantile(0.50))
		rec.AddCounter("fleet tax p99 %", at, all.Tax.Quantile(0.99))
		for _, tier := range soc.Tiers() {
			t := cum.Tiers[tier]
			if t.Frames == 0 {
				continue
			}
			rec.AddCounter("tax p50 % "+tier.String(), at, t.Tax.Quantile(0.50))
		}
	}
	return rec.WriteJSON(w)
}
