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
func Figure3(cfg Config) *Result {
	cfg = cfg.Defaults()
	r := &Result{
		ID:    "fig3",
		Title: "End-to-end latency: CLI benchmark vs benchmark app vs application (CPU, 4 threads)",
		Headers: []string{"Model", "CLI bench (ms)", "Benchmark app (ms)",
			"Application (ms)", "App/CLI"},
	}
	ordered := true
	for _, v := range figureModels(false) {
		cli, err := benchToolRun(cfg.Platform, cfg.Seed, v.M, v.DT, tflite.DelegateCPU, 4, cfg.Runs, false)
		if err != nil {
			continue
		}
		wrapped, err := benchToolRun(cfg.Platform, cfg.Seed+1, v.M, v.DT, tflite.DelegateCPU, 4, cfg.Runs, true)
		if err != nil {
			continue
		}
		frames, err := appRun(cfg.Platform, cfg.Seed+2, v.M, v.DT, tflite.DelegateCPU, cfg.Runs, 0, 0)
		if err != nil {
			continue
		}
		cliMean := core.Mean(cli).Total
		appWrapMean := core.Mean(wrapped).Total
		appMean := core.Mean(frames).Total
		if !(appMean > appWrapMean && appWrapMean > cliMean) {
			ordered = false
		}
		r.AddRow(variantName(v.M, v.DT), msf(cliMean), msf(appWrapMean), msf(appMean),
			fmt.Sprintf("%.2fx", float64(appMean)/float64(cliMean)))
	}
	if ordered {
		r.Notes = append(r.Notes, "shape check PASS: application > benchmark app > CLI for every model (paper Fig. 3)")
	} else {
		r.Notes = append(r.Notes, "shape check FAIL: expected application > benchmark app > CLI everywhere")
	}
	return r
}

// fig4Row holds one model's benchmark-vs-app stage means.
type fig4Row struct {
	name                         string
	benchCap, benchPre, benchInf float64
	appCap, appPre, appInf       float64
}

func figure4Data(cfg Config) []fig4Row {
	cfg = cfg.Defaults()
	var rows []fig4Row
	for _, v := range figureModels(true) { // NNAPI path, as the paper uses
		bench, err := benchToolRun(cfg.Platform, cfg.Seed, v.M, v.DT, tflite.DelegateNNAPI, 4, cfg.Runs, false)
		if err != nil {
			continue
		}
		frames, err := appRun(cfg.Platform, cfg.Seed+1, v.M, v.DT, tflite.DelegateNNAPI, cfg.Runs, 0, 0)
		if err != nil {
			continue
		}
		bm := core.Mean(bench).Stage
		am := core.Mean(frames).Stage
		rows = append(rows, fig4Row{
			name:     variantName(v.M, v.DT),
			benchCap: ms(bm[core.StageCapture]), benchPre: ms(bm[core.StagePre]), benchInf: ms(bm[core.StageInference]),
			appCap: ms(am[core.StageCapture]), appPre: ms(am[core.StagePre]), appInf: ms(am[core.StageInference]),
		})
	}
	return rows
}

// Figure4a regenerates Fig. 4a: absolute data-capture, pre-processing
// and inference latency, benchmark vs application, via NNAPI.
func Figure4a(cfg Config) *Result {
	r := &Result{
		ID:    "fig4a",
		Title: "Data capture & pre-processing vs inference, benchmark vs application (NNAPI)",
		Headers: []string{"Model", "bench capture", "bench pre", "bench infer",
			"app capture", "app pre", "app infer"},
	}
	var appHeavy, total int
	for _, row := range figure4Data(cfg) {
		r.AddRow(row.name,
			fmt.Sprintf("%.2f", row.benchCap), fmt.Sprintf("%.2f", row.benchPre), fmt.Sprintf("%.2f", row.benchInf),
			fmt.Sprintf("%.2f", row.appCap), fmt.Sprintf("%.2f", row.appPre), fmt.Sprintf("%.2f", row.appInf))
		total++
		if row.appCap+row.appPre > row.benchCap+row.benchPre {
			appHeavy++
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf(
		"shape check: %d/%d models spend more on capture+pre inside an application than inside the benchmark", appHeavy, total),
		"all latencies in milliseconds, mean over runs")
	return r
}

// Figure4b regenerates Fig. 4b: capture and pre-processing latency
// relative to inference latency.
func Figure4b(cfg Config) *Result {
	r := &Result{
		ID:      "fig4b",
		Title:   "Capture and pre-processing relative to inference (NNAPI)",
		Headers: []string{"Model", "bench (cap+pre)/inf", "app (cap+pre)/inf"},
	}
	for _, row := range figure4Data(cfg) {
		br := (row.benchCap + row.benchPre) / row.benchInf
		ar := (row.appCap + row.appPre) / row.appInf
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
