package bench

import (
	"fmt"

	"aitax/internal/core"
	"aitax/internal/tflite"
)

// Figure3 regenerates the paper's Fig. 3: end-to-end latency of the same
// models run as (1) the CLI benchmark utility, (2) the Android benchmark
// app, and (3) a real application — all with CPU inference. The expected
// shape: app > benchmark app > CLI, for every model.
func Figure3(cfg Config, p *Planner) func() *Result {
	type row struct {
		name              string
		cli, wrapped, app *Sample
	}
	var rows []row
	pl := cfg.Platform.Name
	for _, v := range figureModels(false) {
		rows = append(rows, row{variantName(v.M, v.DT),
			p.tool(HarnessTool, pl, cfg.Seed, v.M, v.DT, tflite.DelegateCPU, 4, cfg.Runs),
			p.tool(HarnessWrapper, pl, cfg.Seed+1, v.M, v.DT, tflite.DelegateCPU, 4, cfg.Runs),
			p.app(Run{Platform: pl, Seed: cfg.Seed + 2, DType: v.DT, Delegate: tflite.DelegateCPU, N: cfg.Runs}, v.M)})
	}
	return func() *Result {
		r := &Result{
			ID:    "fig3",
			Title: "End-to-end latency: CLI benchmark vs benchmark app vs application (CPU, 4 threads)",
			Headers: []string{"Model", "CLI bench (ms)", "Benchmark app (ms)",
				"Application (ms)", "App/CLI"},
		}
		ordered := true
		for _, row := range rows {
			if row.cli.Err != nil || row.wrapped.Err != nil || row.app.Err != nil {
				continue
			}
			cliMean := row.cli.Mean.Total
			appWrapMean := row.wrapped.Mean.Total
			appMean := row.app.Mean.Total
			if !(appMean > appWrapMean && appWrapMean > cliMean) {
				ordered = false
			}
			r.AddRow(row.name, msf(cliMean), msf(appWrapMean), msf(appMean),
				fmt.Sprintf("%.2fx", float64(appMean)/float64(cliMean)))
		}
		if ordered {
			r.Notes = append(r.Notes, "shape check PASS: application > benchmark app > CLI for every model (paper Fig. 3)")
		} else {
			r.Notes = append(r.Notes, "shape check FAIL: expected application > benchmark app > CLI everywhere")
		}
		return r
	}
}

// fig4Row is one Fig. 4 model through the benchmark utility and the
// application.
type fig4Row struct {
	name       string
	bench, app *Sample
}

// capPre is a run's capture plus pre-processing time in ms.
func capPre(st core.StageTimes) float64 {
	return ms(st.Stage[core.StageCapture]) + ms(st.Stage[core.StagePre])
}

// figure4Data declares each Fig. 4 model through the benchmark utility
// and the application, both via NNAPI as the paper uses.
func figure4Data(cfg Config, p *Planner) []fig4Row {
	var rows []fig4Row
	for _, v := range figureModels(true) {
		rows = append(rows, fig4Row{variantName(v.M, v.DT),
			p.tool(HarnessTool, cfg.Platform.Name, cfg.Seed, v.M, v.DT, tflite.DelegateNNAPI, 4, cfg.Runs),
			p.app(Run{Platform: cfg.Platform.Name, Seed: cfg.Seed + 1, DType: v.DT, Delegate: tflite.DelegateNNAPI, N: cfg.Runs}, v.M)})
	}
	return rows
}

// Figure4a regenerates Fig. 4a: absolute data-capture, pre-processing
// and inference latency, benchmark vs application, via NNAPI.
func Figure4a(cfg Config, p *Planner) func() *Result {
	rows := figure4Data(cfg, p)
	return func() *Result {
		r := &Result{
			ID:    "fig4a",
			Title: "Data capture & pre-processing vs inference, benchmark vs application (NNAPI)",
			Headers: []string{"Model", "bench capture", "bench pre", "bench infer",
				"app capture", "app pre", "app infer"},
		}
		var appHeavy, total int
		for _, row := range rows {
			if row.bench.Err != nil || row.app.Err != nil {
				continue
			}
			b, a := row.bench.Mean.Stage, row.app.Mean.Stage
			r.AddRow(row.name,
				msf(b[core.StageCapture]), msf(b[core.StagePre]), msf(b[core.StageInference]),
				msf(a[core.StageCapture]), msf(a[core.StagePre]), msf(a[core.StageInference]))
			total++
			if capPre(row.app.Mean) > capPre(row.bench.Mean) {
				appHeavy++
			}
		}
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check: %d/%d models spend more on capture+pre inside an application than inside the benchmark", appHeavy, total),
			"all latencies in milliseconds, mean over runs")
		return r
	}
}

// Figure4b regenerates Fig. 4b: capture and pre-processing latency
// relative to inference latency.
func Figure4b(cfg Config, p *Planner) func() *Result {
	rows := figure4Data(cfg, p)
	return func() *Result {
		r := &Result{
			ID:      "fig4b",
			Title:   "Capture and pre-processing relative to inference (NNAPI)",
			Headers: []string{"Model", "bench (cap+pre)/inf", "app (cap+pre)/inf"},
		}
		for _, row := range rows {
			if row.bench.Err != nil || row.app.Err != nil {
				continue
			}
			bm, am := row.bench.Mean, row.app.Mean
			br := capPre(bm) / ms(bm.Stage[core.StageInference])
			ar := capPre(am) / ms(am.Stage[core.StageInference])
			r.AddRow(row.name, fmt.Sprintf("%.2f", br), fmt.Sprintf("%.2f", ar))
			switch row.name {
			case "MobileNet 1.0 v1-int8":
				if ar >= 1 {
					r.Notes = append(r.Notes, fmt.Sprintf(
						"quantized MobileNet spends %.1fx inference time on capture+pre in the app (paper: up to ~2x)", ar))
				}
			case "Inception v3-fp32":
				if ar < 0.5 {
					r.Notes = append(r.Notes,
						"Inception v3: inference latency dominates, as §IV-A reports")
				}
			}
		}
		return r
	}
}
