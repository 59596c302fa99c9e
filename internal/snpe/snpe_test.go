package snpe

import (
	"testing"

	"aitax/internal/driver"
	"aitax/internal/fastrpc"
	"aitax/internal/models"
	"aitax/internal/sched"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/tensor"
)

func newSDK() (*sim.Engine, *SDK, *sched.Scheduler) {
	eng := sim.NewEngine()
	sch := sched.New(eng, sched.DefaultConfig())
	p := soc.Pixel3()
	dspRes := sim.NewResource(eng, 1)
	gpuQ := sim.NewResource(eng, 1)
	ch := fastrpc.NewChannel(eng, p.RPC, dspRes)
	sdk := &SDK{
		CPU: driver.NewCPUTarget("snpe-cpu", sch, &p.Big, 4),
		GPU: driver.NewGPUTarget("snpe-gpu", eng, &p.GPU, gpuQ, driver.SNPESupports),
		DSP: driver.NewDSPTarget("snpe-dsp", &p.DSP, ch, 0.95, driver.SNPESupports),
	}
	return eng, sdk, sch
}

func TestLoadCNNOnDSP(t *testing.T) {
	_, sdk, _ := newSDK()
	m, _ := models.ByName("MobileNet 1.0 v1")
	net, err := sdk.Load(m.Graph, tensor.UInt8, RuntimeDSP)
	if err != nil {
		t.Fatalf("load failed: %v", err)
	}
	if net.Runtime != RuntimeDSP {
		t.Fatal("wrong runtime")
	}
}

func TestLoadBERTFailsOnDSP(t *testing.T) {
	// The "lack of model variety" effect: SNPE rejects models with ops
	// outside its converted set.
	_, sdk, _ := newSDK()
	m, _ := models.ByName("Mobile BERT")
	if _, err := sdk.Load(m.Graph, tensor.Float32, RuntimeDSP); err == nil {
		t.Fatal("transformer model must fail DLC conversion")
	}
}

func TestSNPEDSPBeatsCPUWarm(t *testing.T) {
	// §IV-B: "When we switch the framework to the vendor-optimized
	// Qualcomm SNPE, the DSP's performance is significantly better...
	// outperforms the CPU (as one would expect)."
	m, _ := models.ByName("MobileNet 1.0 v1")

	eng1, sdk1, _ := newSDK()
	netCPU, err := sdk1.Load(m.Graph, tensor.UInt8, RuntimeCPU)
	if err != nil {
		t.Fatal(err)
	}
	netCPU.Execute(nil)
	cpuTime := eng1.Run().Duration()

	eng2, sdk2, _ := newSDK()
	netDSP, _ := sdk2.Load(m.Graph, tensor.UInt8, RuntimeDSP)
	var warm driver.Result
	netDSP.Execute(func(driver.Result) { // cold run pays session setup
		netDSP.Execute(func(r driver.Result) { warm = r })
	})
	eng2.Run()
	if warm.Total() >= cpuTime {
		t.Fatalf("SNPE DSP warm (%v) must beat CPU (%v)", warm.Total(), cpuTime)
	}
	if float64(cpuTime)/float64(warm.Total()) < 2 {
		t.Fatalf("SNPE DSP speedup only %.1fx", float64(cpuTime)/float64(warm.Total()))
	}
}

func TestLoadAlexNetOnDSP(t *testing.T) {
	// SNPE's op set covers LRN; NNAPI's does not.
	_, sdk, _ := newSDK()
	m, _ := models.ByName("AlexNet")
	if _, err := sdk.Load(m.Graph, tensor.Float32, RuntimeDSP); err != nil {
		t.Fatalf("AlexNet must convert under SNPE: %v", err)
	}
}

func TestUnknownRuntime(t *testing.T) {
	_, sdk, _ := newSDK()
	m, _ := models.ByName("MobileNet 1.0 v1")
	if _, err := sdk.Load(m.Graph, tensor.Float32, RuntimeKind(9)); err == nil {
		t.Fatal("unknown runtime accepted")
	}
}

func TestRuntimeStrings(t *testing.T) {
	if RuntimeCPU.String() != "CPU" || RuntimeGPU.String() != "GPU" || RuntimeDSP.String() != "DSP" {
		t.Fatal("runtime names wrong")
	}
}
