package bench

import (
	"fmt"
	"time"

	"aitax/internal/core"
	"aitax/internal/driver"
	"aitax/internal/models"
	"aitax/internal/snpe"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// Frameworks regenerates the §IV-B framework comparison: the same
// quantized models through the TFLite CPU path, the open Hexagon
// delegate, NNAPI automatic assignment, and the vendor-tuned SNPE DSP
// runtime. The paper's takeaways checked here: (1) under SNPE the DSP
// clearly outperforms the CPU; (2) under NNAPI the same DSP silicon can
// lose to the CPU when driver support lags.
func Frameworks(cfg Config) *Result {
	cfg = cfg.Defaults()
	r := &Result{
		ID:    "frameworks",
		Title: "Framework comparison: warm int8 inference latency (ms)",
		Headers: []string{"Model", "TFLite CPU-4T", "Hexagon delegate",
			"NNAPI auto", "SNPE DSP"},
	}
	var snpeWins, nnapiLosses, rows int
	for _, m := range models.All() {
		if !m.Quantizable() {
			continue
		}
		cpu, err1 := benchToolRun(cfg.Platform, cfg.Seed, m, tensor.UInt8, tflite.DelegateCPU, 4, cfg.Runs, false)
		hex, err2 := benchToolRun(cfg.Platform, cfg.Seed, m, tensor.UInt8, tflite.DelegateHexagon, 4, cfg.Runs, false)
		var nnapiCell string
		nnapiMean := time.Duration(0)
		if m.Support.NNAPIInt8 {
			nn8, err := benchToolRun(cfg.Platform, cfg.Seed, m, tensor.UInt8, tflite.DelegateNNAPI, 4, cfg.Runs, false)
			if err == nil {
				nnapiMean = core.Mean(nn8).Stage[core.StageInference]
				nnapiCell = msf(nnapiMean)
			} else {
				nnapiCell = "n/a"
			}
		} else {
			nnapiCell = "n/a"
		}
		snpeLat, snpeOK := snpeWarmLatency(cfg, m)
		if err1 != nil || err2 != nil {
			continue
		}
		cpuMean := core.Mean(cpu).Stage[core.StageInference]
		snpeCell := "n/a"
		if snpeOK {
			snpeCell = msf(snpeLat)
			if snpeLat < cpuMean {
				snpeWins++
			}
		}
		if nnapiMean > cpuMean && nnapiMean > 0 {
			nnapiLosses++
		}
		rows++
		r.AddRow(m.Name, msf(cpuMean), msf(core.Mean(hex).Stage[core.StageInference]), nnapiCell, snpeCell)
	}
	if snpeWins == rows {
		r.Notes = append(r.Notes,
			"shape check PASS: the SNPE DSP beats the CPU on every model it converts (§IV-B)")
	} else {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check FAIL: SNPE DSP beat the CPU on only %d/%d models", snpeWins, rows))
	}
	if nnapiLosses > 0 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%d models are slower via NNAPI than on the plain CPU — \"not all frameworks are created equal\"", nnapiLosses))
	}
	return r
}

// snpeWarmLatency loads the model under the SNPE DSP runtime and
// measures the second (warm) execution.
func snpeWarmLatency(cfg Config, m *models.Model) (time.Duration, bool) {
	rt := tflite.NewStack(clonePlatform(cfg.Platform), cfg.Seed)
	sdk := rt.NewSNPE()
	net, err := sdk.Load(m.Graph, tensor.UInt8, snpe.RuntimeDSP)
	if err != nil {
		return 0, false
	}
	var warm time.Duration
	net.Execute(func(driver.Result) {
		start := rt.Eng.Now()
		net.Execute(func(driver.Result) { warm = rt.Eng.Now().Sub(start) })
	})
	rt.Eng.Run()
	return warm, true
}
