package bench

import (
	"fmt"
	"time"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/nnapi"
	"aitax/internal/soc"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
	"aitax/internal/thermal"
)

// PlatformSweep runs the same workload across all four Table-II
// platforms, exposing the generational trend the paper's text notes
// ("our experimental results indicate that the trends are representative
// across the other, older and newer, chipsets").
func PlatformSweep(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	// Per platform: fp32 on 4 CPU threads, int8 via NNAPI and int8 via
	// the Hexagon delegate.
	platforms := soc.Platforms()
	var samples [][3]*Sample
	for _, pl := range platforms {
		samples = append(samples, [3]*Sample{
			p.tool(HarnessTool, pl.Name, cfg.Seed, m, tensor.Float32, tflite.DelegateCPU, 4, cfg.Runs),
			p.tool(HarnessTool, pl.Name, cfg.Seed, m, tensor.UInt8, tflite.DelegateNNAPI, 4, cfg.Runs),
			p.tool(HarnessTool, pl.Name, cfg.Seed, m, tensor.UInt8, tflite.DelegateHexagon, 4, cfg.Runs),
		})
	}
	return func() *Result {
		r := &Result{
			ID:    "platforms",
			Title: "MobileNet v1 across Snapdragon generations",
			Headers: []string{"Platform", "CPU-4T fp32 (ms)", "NNAPI int8 (ms)",
				"Hexagon int8 (ms)", "DSP cold start (ms)"},
		}
		var prev float64
		monotone := true
		for i, pl := range platforms {
			cpu, nn8, hex := samples[i][0], samples[i][1], samples[i][2]
			if cpu.Err != nil || nn8.Err != nil || hex.Err != nil {
				r.Notes = append(r.Notes, "setup failed on "+pl.Name)
				continue
			}
			cpuMs := ms(cpu.Mean.Stage[core.StageInference])
			r.AddRow(pl.Name, fmt.Sprintf("%.2f", cpuMs),
				msf(nn8.Mean.Stage[core.StageInference]),
				msf(hex.Mean.Stage[core.StageInference]), msf(pl.RPC.SessionSetup))
			if prev != 0 && cpuMs >= prev {
				monotone = false
			}
			prev = cpuMs
		}
		if monotone {
			r.Notes = append(r.Notes, "shape check PASS: every generation is faster than its predecessor")
		} else {
			r.Notes = append(r.Notes, "shape check FAIL: generational trend broken")
		}
		return r
	}
}

// Preferences contrasts NNAPI execution preferences on latency and
// energy: FAST_SINGLE_ANSWER picks the GPU for fp32; LOW_POWER routes
// fp32 to the frugal-but-slow DSP path.
func Preferences(cfg Config) *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	r := &Result{
		ID:      "prefs",
		Title:   "NNAPI execution preferences: latency vs power (MobileNet v1 fp32)",
		Headers: []string{"Preference", "device", "latency (ms)", "energy (mJ)", "avg power (W)"},
	}
	var fastW, lowW, fastL, lowL float64
	for _, pref := range []nnapi.Preference{nnapi.FastSingleAnswer, nnapi.SustainedSpeed, nnapi.LowPower} {
		rt := cfg.stack()
		fw := rt.NewNNAPI()
		cm := fw.Compile(m.Graph, tensor.Float32, pref)
		device := "?"
		if len(cm.Partitions) > 0 {
			device = cm.Partitions[0].Target.Name()
		}
		warm, _ := warmRun(rt, func(done func(nnapi.Report)) { fw.Execute(cm, done) })
		lat := ms(warm.Total())
		energy := warm.EnergyJ * 1000
		watts := warm.EnergyJ / warm.Total().Seconds()
		r.AddRow(pref.String(), device, fmt.Sprintf("%.2f", lat),
			fmt.Sprintf("%.1f", energy), fmt.Sprintf("%.2f", watts))
		switch pref {
		case nnapi.FastSingleAnswer:
			fastL, fastW = lat, watts
		case nnapi.LowPower:
			lowL, lowW = lat, watts
		}
	}
	if lowW < fastW && lowL > fastL {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"shape check PASS: LOW_POWER draws %.1fx less power at %.1fx the latency (thermal/battery headroom, not energy-to-solution)",
			fastW/lowW, lowL/fastL))
	} else {
		r.Notes = append(r.Notes, "shape check FAIL: LOW_POWER should draw less power at higher latency")
	}
	return r
}

// Thermal demonstrates the §III-D methodology hazard: a long
// benchmarking session heats the die past the throttling threshold and
// the "same" measurement drifts — which is why the paper cools the CPU
// to its 33°C idle point before every run.
func Thermal(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("Inception v3")
	// The idle-temperature baseline.
	smp := p.tool(HarnessTool, cfg.Platform.Name, cfg.Seed, m, tensor.Float32, tflite.DelegateCPU, 4, 3)
	return func() *Result {
		r := &Result{
			ID:      "thermal",
			Title:   "Latency drift under sustained load (Inception v3 fp32, CPU)",
			Headers: []string{"Minute", "die temp (C)", "throttle factor", "inference (ms)"},
		}

		if smp.Err != nil {
			r.Notes = append(r.Notes, "setup failed: "+smp.Err.Error())
			return r
		}
		base := smp.Mean.Stage[core.StageInference]

		th := thermal.Default()
		var first, last float64
		for minute := 0; minute <= 8; minute++ {
			factor := th.ThrottleFactor()
			lat := time.Duration(float64(base) / factor)
			r.AddRow(minute, fmt.Sprintf("%.1f", th.TempC()),
				fmt.Sprintf("%.2f", factor), msf(lat))
			if minute == 0 {
				first = ms(lat)
			}
			last = ms(lat)
			// One minute of the benchmark loop at ~full CPU utilization.
			th.Advance(time.Minute, 0.95)
		}
		if last > first*1.15 {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"shape check PASS: sustained load drifts latency %.2f -> %.2f ms (%.0f%%) — cool to idle before measuring (§III-D)",
				first, last, 100*(last-first)/first))
		} else {
			r.Notes = append(r.Notes, "shape check FAIL: no thermal drift under sustained load")
		}
		return r
	}
}

// PartitionAblation sweeps the NNAPI driver's partition-shatter
// threshold, the design parameter behind the Fig. 5 cliff: with a high
// enough limit the shattered plan executes partitioned (paying dozens of
// DSP round-trips); past the limit NNAPI retreats to the reference CPU
// path. Both lose to the plain CPU.
func PartitionAblation(cfg Config, p *Planner) func() *Result {
	m, _ := models.ByName("EfficientNet-Lite0")
	cpu := p.tool(HarnessTool, cfg.Platform.Name, cfg.Seed, m, tensor.UInt8, tflite.DelegateCPU, 1, cfg.Runs)
	return func() *Result {
		r := &Result{
			ID:      "ablation-partitions",
			Title:   "Fig. 5 ablation: NNAPI partition-shatter threshold (EfficientNet-Lite0 int8)",
			Headers: []string{"MaxQuantPartitions", "plan", "partitions", "warm latency (ms)"},
		}
		for _, limit := range []int{4, 12, 24, 1000} {
			rt := cfg.stack()
			fw := rt.NewNNAPI()
			fw.MaxQuantPartitions = limit
			cm := fw.Compile(m.Graph, tensor.UInt8, nnapi.FastSingleAnswer)
			plan := "partitioned (DSP+CPU)"
			if cm.ReferenceFallback {
				plan = "reference CPU fallback"
			}
			warm, _ := warmRun(rt, func(done func(nnapi.Report)) { fw.Execute(cm, done) })
			r.AddRow(limit, plan, len(cm.Partitions), msf(warm.Total()))
		}
		if cpu.Err == nil {
			r.AddRow("(plain CPU, 1 thread)", "-", 1, msf(cpu.Mean.Stage[core.StageInference]))
		}
		r.Notes = append(r.Notes,
			"whether the driver shatters or retreats, a graph with unsupported interleaved ops loses to staying on the CPU — the Fig. 5 lesson is threshold-independent")
		return r
	}
}

// ModelsInventory exposes the reconstruction-scale table.
func ModelsInventory(cfg Config) *Result { return modelCard() }
