package driver_test

import (
	"testing"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/nn"
	"aitax/internal/nnapi"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

// compile partitions model at dt the way production does, through an
// NNAPI framework whose driver and accelerators all use the support
// matrix supports.
func compile(t *testing.T, model string, dt tensor.DType, supports func(*nn.Op, tensor.DType) bool) *nnapi.CompiledModel {
	t.Helper()
	m, err := models.ByName(model)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := soc.Pixel3()
	fw := nnapi.New(nnapi.Config{
		Engine:       eng,
		AccelFP32:    driver.NewGPUTarget("gpu", eng, &p.GPU, sim.NewResource(eng, 1), supports),
		AccelInt8:    driver.NewDSPTarget("dsp", &p.DSP, fastrpc.NewChannel(eng, p.RPC, sim.NewResource(eng, 1)), 0.6, supports),
		FallbackCPU:  driver.NewCPUTarget("cpu", sch, &p.Big, 4),
		ReferenceCPU: driver.NewReferenceCPUTarget("ref", sch, &p.Big),
		Supports:     supports,
	})
	return fw.Compile(m.Graph, dt, nnapi.FastSingleAnswer)
}

func TestInceptionHalfOffloadsUnderNNAPI(t *testing.T) {
	// §IV-A: Inception v3 "only partially able to be offloaded by NNAPI
	// and runs around half of its inference on the CPU".
	if f := compile(t, "Inception v3", tensor.Float32, driver.NNAPIVendorSupports).OffloadedFraction(); f < 0.3 || f > 0.75 {
		t.Fatalf("Inception v3 NNAPI-offloaded fraction = %.2f, want ~half", f)
	}
	if f := compile(t, "MobileNet 1.0 v1", tensor.UInt8, driver.NNAPIVendorSupports).OffloadedFraction(); f < 0.95 {
		t.Fatalf("MobileNet int8 must offload nearly fully, got %.2f", f)
	}
}

func TestEfficientNetShattersUnderNNAPIInt8(t *testing.T) {
	// The vendor driver's int8 matrix misses the residual ADDs that the
	// Hexagon delegate's covers, so its plan shatters and nothing stays
	// on the accelerator.
	vendor := compile(t, "EfficientNet-Lite0", tensor.UInt8, driver.NNAPIVendorSupports)
	full := compile(t, "EfficientNet-Lite0", tensor.UInt8, driver.HexagonDelegateSupports)
	if vendor.OffloadedFraction() >= full.OffloadedFraction() {
		t.Fatalf("vendor NNAPI int8 offloads %.2f of EfficientNet, the Hexagon delegate's matrix %.2f: want less",
			vendor.OffloadedFraction(), full.OffloadedFraction())
	}
}
