package obs

import (
	"fmt"
	"strings"
	"time"
)

// sparkRunes are the eight-level bar glyphs for trend sparklines.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders vals as a fixed-height bar chart, scaled to the
// series' own maximum (an all-zero series renders as all-minimum bars).
func Sparkline(vals []float64) string {
	var max float64
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var sb strings.Builder
	for _, v := range vals {
		i := 0
		if max > 0 {
			i = int(v / max * float64(len(sparkRunes)-1))
			if i < 0 {
				i = 0
			}
			if i > len(sparkRunes)-1 {
				i = len(sparkRunes) - 1
			}
		}
		sb.WriteRune(sparkRunes[i])
	}
	return sb.String()
}

// Dashboard renders a Recorder (+ optional Monitor) as a terminal text
// snapshot: the `aitax serve -watch` screen. Rendering is a pure
// function of the recorder/monitor state, so the simulator path golden-
// diffs the exact bytes the live dashboard would show.
type Dashboard struct {
	Rec *Recorder
	Mon *Monitor
	// Models are the per-model rows, in display order (the bridges pass
	// the config's model list); the AllModels aggregate row is appended
	// automatically.
	Models []string
	// Windows is the rolling horizon in recorder windows (default 8).
	Windows int
	// Spark is the sparkline width in windows (default 32).
	Spark int
}

// Render returns the dashboard text. now is the current time on the
// recorder's clock (virtual in the simulator, since-start on the HTTP
// path) — shown in the header, not used for bucketing.
func (d *Dashboard) Render(now time.Duration) string {
	windows := d.Windows
	if windows <= 0 {
		windows = 8
	}
	spark := d.Spark
	if spark <= 0 {
		spark = 32
	}
	var sb strings.Builder
	span := time.Duration(windows) * d.Rec.Window()
	fmt.Fprintf(&sb, "aitax-serve  t=%-12s rolling last %s (%d windows of %s)\n",
		now, span, windows, d.Rec.Window())
	fmt.Fprintf(&sb, "%-24s %8s %8s %8s %8s %6s %6s %6s\n",
		"model", "qps", "p50ms", "p90ms", "p99ms", "rej%", "batch", "depth")

	rows := append(append([]string{}, d.Models...), AllModels)
	for _, m := range rows {
		s := SeriesFor(m)
		lat := d.Rec.MergedHist(s.Latency, windows)
		offered := d.Rec.SumCounter(s.Offered, windows)
		served := d.Rec.SumCounter(s.Served, windows)
		rejected := d.Rec.SumCounter(s.Rejected, windows)
		batch := d.Rec.MergedHist(s.Batch, windows)
		depth := d.Rec.MergedHist(s.Depth, windows)
		qps := 0.0
		if secs := span.Seconds(); secs > 0 {
			qps = served / secs
		}
		rejPct := 0.0
		if offered > 0 {
			rejPct = rejected / offered * 100
		}
		fmt.Fprintf(&sb, "%-24s %8.1f %8.2f %8.2f %8.2f %6.1f %6.2f %6.2f\n",
			m, qps, lat.Quantile(0.50), lat.Quantile(0.90), lat.Quantile(0.99),
			rejPct, batch.Mean(), depth.Mean())
	}

	// Table-III anatomy: mean ms/request per stage over the horizon.
	all := SeriesFor(AllModels)
	served := d.Rec.SumCounter(all.Served, windows)
	sb.WriteString("tax anatomy ms/req:")
	for i, st := range Stages {
		per := 0.0
		if served > 0 {
			per = d.Rec.SumCounter(StageSeries[i], windows) / served
		}
		fmt.Fprintf(&sb, "  %s %.2f", st, per)
	}
	bw := d.Rec.MergedHist(all.BatchWait, windows)
	dw := d.Rec.MergedHist(all.DispatchWait, windows)
	fmt.Fprintf(&sb, "  batch-wait %.2f  dispatch-wait %.2f\n", bw.Mean(), dw.Mean())

	fmt.Fprintf(&sb, "p99 trend  %s\n", Sparkline(d.Rec.RecentQuantiles(all.Latency, 0.99, spark)))

	if d.Mon != nil {
		burns := d.Mon.CurrentBurn()
		for _, o := range d.Mon.Objectives {
			b := burns[o.Name()]
			state := "OK"
			switch {
			case b[0] >= d.Mon.Page && b[1] >= d.Mon.Page:
				state = "PAGE"
			case b[0] >= d.Mon.Warn && b[1] >= d.Mon.Warn:
				state = "WARN"
			}
			fmt.Fprintf(&sb, "slo %-24s %-12s burn short %5.1fx long %5.1fx  %s\n",
				o.Name(), o.describe(), b[0], b[1], state)
		}
	}
	if dropped := d.Rec.Dropped(); dropped > 0 {
		fmt.Fprintf(&sb, "dropped %d late observations\n", dropped)
	}
	return sb.String()
}
