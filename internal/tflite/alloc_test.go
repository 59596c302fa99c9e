//go:build !race

package tflite

import (
	"context"
	"testing"

	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// TestSteadyInvokeDoesNotAllocate pins the steady invoke's allocations
// at zero on every delegate path: the NNAPI plan of EfficientNet-Lite0
// int8, which alternates DSP and CPU-fallback partitions (its shatter
// threshold is raised so the plan runs instead of the reference path),
// the same graph's fp32 plan on the GPU, the direct GPU and Hexagon
// delegates, and the CPU delegate, whose warm invoke is one replayed
// engine event. Zero per invoke is zero per partition. It also pins a
// benchmark-tool iteration at zero: measuring 40 runs allocates what
// measuring 4 does. Race mode is excluded like the other allocation
// pins.
func TestSteadyInvokeDoesNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		model string
		dt    tensor.DType
		d     Delegate
		parts int // minimum partitions of the plan
	}{
		{"EfficientNet-Lite0", tensor.Int8, DelegateNNAPI, 13},
		{"EfficientNet-Lite0", tensor.Float32, DelegateNNAPI, 1},
		{"MobileNet 1.0 v1", tensor.Float32, DelegateGPU, 1},
		{"MobileNet 1.0 v1", tensor.Int8, DelegateHexagon, 1},
		{"MobileNet 1.0 v1", tensor.Float32, DelegateCPU, 1},
	} {
		name := tc.model + "/" + tc.dt.String() + "/" + tc.d.String()
		m, err := models.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		rt := NewStack(soc.Pixel3(), 1)
		opts := Options{Delegate: tc.d}
		if tc.d == DelegateNNAPI {
			opts.NNAPI = rt.NewNNAPI()
			opts.NNAPI.MaxQuantPartitions = 1000
		}
		ip, err := rt.NewInterpreter(m, tc.dt, opts)
		if err != nil {
			t.Fatal(err)
		}
		ip.Init(nil)
		rt.Eng.Run()
		parts := len(ip.segments)
		if ip.compiled != nil {
			parts = len(ip.compiled.Partitions)
		}
		if parts < tc.parts {
			t.Fatalf("%s: %d partitions, want at least %d", name, parts, tc.parts)
		}
		invoke := func() {
			ip.Invoke(nil)
			rt.Eng.Run()
		}
		for i := 0; i < 3; i++ {
			invoke()
		}
		seq := rt.Eng.Scheduled()
		if allocs := testing.AllocsPerRun(50, invoke); allocs != 0 {
			t.Errorf("%s: a warm invoke of %d partitions allocates %.1f times, want 0", name, parts, allocs)
		}
		if tc.d == DelegateCPU && sched.Shortcuts {
			if events := rt.Eng.Scheduled() - seq; events != 51 {
				t.Errorf("%s: 51 warm invokes scheduled %d events, want one replay each", name, events)
			}
		}
	}

	m, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		t.Fatal(err)
	}
	rt := NewStack(soc.Pixel3(), 1)
	ip, err := rt.NewInterpreter(m, tensor.Int8, Options{Delegate: DelegateNNAPI})
	if err != nil {
		t.Fatal(err)
	}
	bt := NewBenchTool(rt, ip)
	bt.AppWrapper = true
	measure := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := bt.Measure(context.Background(), n); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := measure(4), measure(40); few != many {
		t.Errorf("the benchmark tool allocates %.1f times for 4 runs and %.1f for 40, want equal", few, many)
	}
}
