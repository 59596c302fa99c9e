package bench

import (
	"fmt"

	"aitax/internal/models"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// InitTimes breaks down model initialization by delegate — the quantity
// §IV-C says "is good to measure if an application switches between
// models or frequently reloads them". GPU shader compilation and NNAPI
// model compilation dominate; both amortize only if the model stays
// loaded.
func InitTimes(cfg Config) *Result {
	r := &Result{
		ID:      "init",
		Title:   "Model initialization time by delegate (one-time, per load)",
		Headers: []string{"Model", "CPU (ms)", "GPU delegate (ms)", "Hexagon (ms)", "NNAPI (ms)"},
	}
	type cellRun struct {
		delegate tflite.Delegate
		dt       tensor.DType
	}
	for _, name := range []string{"MobileNet 1.0 v1", "EfficientNet-Lite0", "Inception v3", "Deeplab-v3 MobileNet-v2"} {
		m, _ := models.ByName(name)
		cells := []string{}
		for _, c := range []cellRun{
			{tflite.DelegateCPU, tensor.Float32},
			{tflite.DelegateGPU, tensor.Float32},
			{tflite.DelegateHexagon, tensor.UInt8},
			{tflite.DelegateNNAPI, tensor.Float32},
		} {
			rt := cfg.stack()
			ip, err := rt.NewInterpreter(m, c.dt, tflite.Options{Delegate: c.delegate})
			if err != nil {
				cells = append(cells, "n/a")
				continue
			}
			ip.Init(nil)
			rt.Eng.Run()
			cells = append(cells, msf(ip.InitTime))
		}
		r.AddRow(name, cells[0], cells[1], cells[2], cells[3])
	}
	r.Notes = append(r.Notes,
		"GPU-delegate init is shader-compilation-dominated; add the DSP session setup (see coldstart) for the first accelerated inference")
	return r
}

// StdlibQuirk reproduces the §IV-A anecdote verbatim: the benchmark
// binary's C++ standard library flips which precision's random input
// generation is expensive, silently distorting the "data capture" stage
// of inference-only benchmarks.
func StdlibQuirk(cfg Config) *Result {
	m, _ := models.ByName("MobileNet 1.0 v1")
	elems := m.InputW * m.InputH * 3
	p := Run{Platform: cfg.Platform.Name}.platform(cfg.Platform)
	r := &Result{
		ID:      "stdlib",
		Title:   "Random input generation cost by C++ standard library (MobileNet input)",
		Headers: []string{"stdlib", "fp32 gen (ms)", "int8 gen (ms)", "slower side"},
	}
	for _, lib := range []tflite.StdLib{tflite.LibCXX, tflite.LibStdCXX} {
		f32 := p.Big.TimeFor(tflite.RandomInputWork(elems, tensor.Float32, lib), tensor.Float32)
		i8 := p.Big.TimeFor(tflite.RandomInputWork(elems, tensor.UInt8, lib), tensor.UInt8)
		slower := "fp32"
		if i8 > f32 {
			slower = "int8"
		}
		r.AddRow(lib.String(), msf(f32), msf(i8), slower)
	}
	if len(r.Rows) == 2 && r.Rows[0][3] != r.Rows[1][3] {
		r.Notes = append(r.Notes,
			"shape check PASS: switching the standard library reverses which precision pays for random generation (§IV-A)")
	} else {
		r.Notes = append(r.Notes, "shape check FAIL: stdlib flip not observed")
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("benchmark 'data capture' is random generation over %d elements — a fallacy of that stand-in for real sensors", elems))
	return r
}
