package soc

import (
	"testing"
	"time"

	"aitax/internal/tensor"
	"aitax/internal/work"
)

func TestPlatformsValidate(t *testing.T) {
	ps := Platforms()
	if len(ps) != 4 {
		t.Fatalf("platforms = %d, want 4 (Table II)", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestPlatformNamesMatchTableII(t *testing.T) {
	want := map[string][2]string{
		"Open-Q 835 uSOM":    {"Adreno 540", "Hexagon 682"},
		"Google Pixel 3":     {"Adreno 630", "Hexagon 685"},
		"Snapdragon 855 HDK": {"Adreno 640", "Hexagon 690"},
		"Snapdragon 865 HDK": {"Adreno 650", "Hexagon 698"},
	}
	for _, p := range Platforms() {
		w, ok := want[p.Name]
		if !ok {
			t.Errorf("unexpected platform %s", p.Name)
			continue
		}
		if p.GPUName != w[0] || p.DSPName != w[1] {
			t.Errorf("%s accelerators = %s/%s, want %s/%s", p.Name, p.GPUName, p.DSPName, w[0], w[1])
		}
	}
}

func TestPlatformByName(t *testing.T) {
	if _, err := PlatformByName("Google Pixel 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := PlatformByName("Snapdragon 845"); err != nil {
		t.Fatal("chipset lookup failed")
	}
	if _, err := PlatformByName("iPhone"); err == nil {
		t.Fatal("unknown platform accepted")
	}
}

func TestGenerationsGetFaster(t *testing.T) {
	w := work.Work{Ops: 1e9, Bytes: 1e6, Vectorizable: true}
	ps := Platforms()
	for i := 1; i < len(ps); i++ {
		prev := ps[i-1].DSP.TimeFor(w, tensor.Int8)
		cur := ps[i].DSP.TimeFor(w, tensor.Int8)
		if cur >= prev {
			t.Errorf("%s DSP (%v) not faster than %s (%v)", ps[i].Name, cur, ps[i-1].Name, prev)
		}
	}
}

func TestDSPInt8BeatsCPU(t *testing.T) {
	p := Pixel3()
	w := work.Work{Ops: 1e9, Bytes: 10e6, Vectorizable: true}
	dsp := p.DSP.TimeFor(w, tensor.Int8)
	cpu := p.Big.TimeFor(w, tensor.Int8)
	if float64(cpu)/float64(dsp) < 4 {
		t.Errorf("DSP int8 speedup = %.1fx, want >4x (cpu=%v dsp=%v)",
			float64(cpu)/float64(dsp), cpu, dsp)
	}
}

func TestDSPFP32IsWeak(t *testing.T) {
	// The Hexagon's fp32 path must NOT beat the big CPU cluster: this is
	// why fp32 models stay on CPU/GPU in the paper.
	p := Pixel3()
	w := work.Work{Ops: 1e9, Bytes: 1e6, Vectorizable: true}
	if p.DSP.TimeFor(w, tensor.Float32) < p.Big.TimeFor(w, tensor.Float32) {
		t.Error("DSP fp32 should not beat a big core")
	}
}

func TestGPUFasterThanSingleCPU(t *testing.T) {
	p := Pixel3()
	w := work.Work{Ops: 2e9, Bytes: 10e6, Vectorizable: true}
	if p.GPU.TimeFor(w, tensor.Float32) >= p.Big.TimeFor(w, tensor.Float32) {
		t.Error("GPU fp32 must beat one big core")
	}
}

func TestRooflineMemoryBound(t *testing.T) {
	d := Device{Name: "d", FP32OpsPerSec: 1e12, Int8OpsPerSec: 1e12,
		ScalarOpsPerSec: 1e12, MemBytesPerSec: 1e9}
	// 1 GB at 1 GB/s = 1 s regardless of tiny op count.
	w := work.Work{Ops: 10, Bytes: 1e9, Vectorizable: true}
	got := d.TimeFor(w, tensor.Float32)
	if got < 990*time.Millisecond || got > 1010*time.Millisecond {
		t.Fatalf("memory-bound time = %v, want ~1s", got)
	}
}

func TestRooflineComputeBound(t *testing.T) {
	d := Device{Name: "d", FP32OpsPerSec: 1e9, Int8OpsPerSec: 2e9,
		ScalarOpsPerSec: 1e8, MemBytesPerSec: 1e12}
	w := work.Work{Ops: 1e9, Bytes: 10, Vectorizable: true}
	if got := d.TimeFor(w, tensor.Float32); got < 990*time.Millisecond {
		t.Fatalf("compute-bound fp32 = %v, want ~1s", got)
	}
	if got := d.TimeFor(w, tensor.Int8); got > 510*time.Millisecond {
		t.Fatalf("int8 = %v, want ~0.5s", got)
	}
	// Non-vectorizable work uses the scalar path.
	sw := work.Work{Ops: 1e8, Bytes: 10, Vectorizable: false}
	if got := d.TimeFor(sw, tensor.Float32); got < 990*time.Millisecond {
		t.Fatalf("scalar = %v, want ~1s", got)
	}
}

func TestSpeedup(t *testing.T) {
	fast := Device{Name: "f", FP32OpsPerSec: 2e9, Int8OpsPerSec: 2e9, ScalarOpsPerSec: 2e9, MemBytesPerSec: 1e12}
	slow := Device{Name: "s", FP32OpsPerSec: 1e9, Int8OpsPerSec: 1e9, ScalarOpsPerSec: 1e9, MemBytesPerSec: 1e12}
	w := work.Work{Ops: 1e9, Bytes: 1, Vectorizable: true}
	if sp := fast.Speedup(&slow, w, tensor.Float32); sp < 1.9 || sp > 2.1 {
		t.Fatalf("speedup = %v, want ~2", sp)
	}
}

func TestIdleTemp(t *testing.T) {
	for _, p := range Platforms() {
		if p.IdleTempC != 33 {
			t.Errorf("%s idle temp = %v, want 33 (§III-D)", p.Name, p.IdleTempC)
		}
	}
}

func TestKindString(t *testing.T) {
	for _, k := range []Kind{CPUBig, CPULittle, GPU, DSP} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestDevicesList(t *testing.T) {
	p := Pixel3()
	if len(p.Devices()) != 4 {
		t.Fatalf("devices = %d, want 4", len(p.Devices()))
	}
}

func TestEnergyFor(t *testing.T) {
	p := Pixel3()
	w := work.Work{Ops: 1e9, Bytes: 1e6, Vectorizable: true}
	eBig := p.Big.EnergyFor(w, tensor.Float32)
	eDSP := p.DSP.EnergyFor(w, tensor.Int8)
	if eBig <= 0 || eDSP <= 0 {
		t.Fatal("energy must be positive")
	}
	// The DSP's int8 path is far more energy-efficient than a big core.
	if eDSP >= eBig {
		t.Fatalf("DSP int8 energy %v must beat big-core fp32 %v", eDSP, eBig)
	}
}

func TestActivePowerSet(t *testing.T) {
	for _, p := range Platforms() {
		for _, d := range p.Devices() {
			if d.ActivePowerW <= 0 {
				t.Fatalf("%s %s has no power figure", p.Name, d.Name)
			}
		}
	}
	p := Pixel3()
	if p.Little.ActivePowerW >= p.Big.ActivePowerW {
		t.Fatal("little cores must draw less than big cores")
	}
}
