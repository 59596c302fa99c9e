package bench

import (
	"fmt"
	"time"

	"aitax/internal/core"
	"aitax/internal/models"
	"aitax/internal/sim"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
	"aitax/internal/trace"
)

// fig5Config is one bar of Fig. 5.
type fig5Config struct {
	label    string
	delegate tflite.Delegate
	threads  int
}

func fig5Configs() []fig5Config {
	return []fig5Config{
		{"Hexagon delegate", tflite.DelegateHexagon, 4},
		{"CPU 4 threads", tflite.DelegateCPU, 4},
		{"CPU 1 thread", tflite.DelegateCPU, 1},
		{"NNAPI (auto)", tflite.DelegateNNAPI, 4},
	}
}

// fig5Latency measures steady-state inference latency for one config.
func fig5Latency(cfg Config, m *models.Model, dt tensor.DType, c fig5Config) (time.Duration, error) {
	samples, err := benchToolRun(cfg.Platform, cfg.Seed, m, dt, c.delegate, c.threads, cfg.Runs, false)
	if err != nil {
		return 0, err
	}
	return core.Mean(samples).Stage[core.StageInference], nil
}

// Figure5 regenerates the paper's Fig. 5: quantized EfficientNet-Lite0
// through four device targets, with NNAPI's automatic assignment
// degrading performance ~7x versus a single CPU thread — and the fp32
// model showing no such cliff.
func Figure5(cfg Config) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("EfficientNet-Lite0")
	r := &Result{
		ID:      "fig5",
		Title:   "EfficientNet-Lite0: inference latency by execution target",
		Headers: []string{"Target", "int8 (ms)", "fp32 (ms)"},
	}
	var int8CPU1, int8NNAPI time.Duration
	var fp32CPU1, fp32NNAPI time.Duration
	for _, c := range fig5Configs() {
		i8, err8 := fig5Latency(cfg, m, tensor.UInt8, c)
		f32, err32 := fig5Latency(cfg, m, tensor.Float32, c)
		i8s, f32s := "n/a", "n/a"
		if err8 == nil {
			i8s = msf(i8)
		}
		if err32 == nil {
			f32s = msf(f32)
		}
		r.AddRow(c.label, i8s, f32s)
		switch c.label {
		case "CPU 1 thread":
			int8CPU1, fp32CPU1 = i8, f32
		case "NNAPI (auto)":
			int8NNAPI, fp32NNAPI = i8, f32
		}
	}
	if int8CPU1 > 0 && int8NNAPI > 0 {
		ratio := float64(int8NNAPI) / float64(int8CPU1)
		r.Notes = append(r.Notes, fmt.Sprintf(
			"int8 NNAPI degradation vs CPU-1T: %.1fx (paper: ~7x)", ratio))
	}
	if fp32CPU1 > 0 && fp32NNAPI > 0 && fp32NNAPI < 2*fp32CPU1 {
		r.Notes = append(r.Notes, "fp32 shows no NNAPI cliff, as the paper observes")
	}
	r.Notes = append(r.Notes,
		"mechanism: the vendor driver lacks the quantized ADD variant; the plan shatters and NNAPI retreats to its single-threaded reference CPU path")
	return r
}

// Figure6 regenerates the paper's Fig. 6: Snapdragon-Profiler-style
// execution timelines of quantized EfficientNet-Lite0 under (1) CPU
// 4 threads, (2) the Hexagon delegate, and (3) NNAPI automatic device
// selection — the last showing a lone thread bouncing across cores.
func Figure6(cfg Config) *Result {
	cfg = cfg.Defaults()
	m, _ := models.ByName("EfficientNet-Lite0")
	r := &Result{
		ID:    "fig6",
		Title: "Execution profile while running EfficientNet-Lite0 (int8)",
	}

	type profRun struct {
		label    string
		delegate tflite.Delegate
	}
	for _, pr := range []profRun{
		{"CPU (4 threads)", tflite.DelegateCPU},
		{"TFLite Hexagon delegate", tflite.DelegateHexagon},
		{"NNAPI automatic device selection", tflite.DelegateNNAPI},
	} {
		rt := tflite.NewStack(clonePlatform(cfg.Platform), cfg.Seed)
		prof := trace.NewProfiler(rt.Eng, 2*time.Millisecond)
		prof.Attach(rt.Sch)
		prof.TrackResource("cdsp", rt.DSP)
		// AXI fabric traffic, derived from accelerator activity weighted
		// by each unit's memory bandwidth (how bus monitors see it).
		p := rt.Platform
		totalBW := p.DSP.MemBytesPerSec + p.GPU.MemBytesPerSec
		prof.TrackDerived("axi", func() float64 {
			bw := float64(rt.DSP.InUse())*p.DSP.MemBytesPerSec +
				float64(rt.GPUQueue.InUse())*p.GPU.MemBytesPerSec
			return bw / totalBW
		})
		ip, err := rt.NewInterpreter(m, tensor.UInt8, tflite.Options{Delegate: pr.delegate})
		if err != nil {
			continue
		}
		const horizon = 600 * time.Millisecond
		ip.Init(func() {
			prof.StartSampling(horizon)
			var loop func()
			loop = func() {
				if rt.Eng.Now().Duration() >= horizon {
					return
				}
				ip.Invoke(func(tflite.Report) { loop() })
			}
			loop()
		})
		rt.Eng.RunUntil(sim.Time(0).Add(horizon))
		block := fmt.Sprintf("--- %s ---\n%s", pr.label, prof.Render())
		r.Blocks = append(r.Blocks, block)
		if pr.delegate == tflite.DelegateNNAPI {
			r.Notes = append(r.Notes, fmt.Sprintf(
				"NNAPI run shows %d core migrations (paper: frequent CPU migrations, annotation 4)", prof.Migrations()))
		}
	}
	r.Notes = append(r.Notes,
		"CPU run: sustained utilization on the big cores (annotation 1)",
		"Hexagon run: cDSP row saturated during inference (annotation 2)",
		"NNAPI run: sporadic single-core activity wandering across cores (annotation 3)")
	return r
}
