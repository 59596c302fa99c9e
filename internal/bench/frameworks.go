package bench

import (
	"fmt"
	"time"

	"aitax/internal/core"
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
func Frameworks(cfg Config, p *Planner) func() *Result {
	// Per quantized model: the TFLite CPU path, the Hexagon delegate and,
	// where the vendor driver supports it, NNAPI.
	var quantized []*models.Model
	var samples [][]*Sample
	for _, m := range models.All() {
		if !m.Quantizable() {
			continue
		}
		want := func(d tflite.Delegate) *Sample {
			return p.tool(HarnessTool, cfg.Platform.Name, cfg.Seed, m, tensor.UInt8, d, 4, cfg.Runs)
		}
		smp := []*Sample{want(tflite.DelegateCPU), want(tflite.DelegateHexagon)}
		if m.Support.NNAPIInt8 {
			smp = append(smp, want(tflite.DelegateNNAPI))
		}
		quantized, samples = append(quantized, m), append(samples, smp)
	}
	return func() *Result {
		r := &Result{
			ID:    "frameworks",
			Title: "Framework comparison: warm int8 inference latency (ms)",
			Headers: []string{"Model", "TFLite CPU-4T", "Hexagon delegate",
				"NNAPI auto", "SNPE DSP"},
		}
		var snpeWins, nnapiLosses, rows int
		for i, m := range quantized {
			k := samples[i]
			cpu, hex := k[0], k[1]
			nnapiCell := "n/a"
			nnapiMean := time.Duration(0)
			if len(k) == 3 {
				if nn8 := k[2]; nn8.Err == nil {
					nnapiMean = nn8.Mean.Stage[core.StageInference]
					nnapiCell = msf(nnapiMean)
				}
			}
			if cpu.Err != nil || hex.Err != nil {
				continue
			}
			snpeLat, snpeOK := snpeWarmLatency(cfg, m)
			cpuMean := cpu.Mean.Stage[core.StageInference]
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
			r.AddRow(m.Name, msf(cpuMean), msf(hex.Mean.Stage[core.StageInference]), nnapiCell, snpeCell)
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
}

// snpeWarmLatency loads the model under the SNPE DSP runtime and
// measures the second (warm) execution.
func snpeWarmLatency(cfg Config, m *models.Model) (time.Duration, bool) {
	rt := cfg.stack()
	net, err := rt.NewSNPE().Load(m.Graph, tensor.UInt8, snpe.RuntimeDSP)
	if err != nil {
		return 0, false
	}
	_, warm := warmRun(rt, net.Execute)
	return warm, true
}
