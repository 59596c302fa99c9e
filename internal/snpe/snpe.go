// Package snpe models Qualcomm's Snapdragon Neural Processing Engine,
// the vendor framework the paper contrasts with NNAPI (§IV-B). SNPE
// converts a model ahead of time for one runtime (CPU, GPU or DSP) and
// rejects models containing ops that runtime cannot execute — the "lack
// of model variety" the paper mentions — but what it does run, it runs
// with highly tuned kernels, which is why the DSP outperforms the CPU
// under SNPE where NNAPI failed to deliver.
package snpe

import (
	"fmt"

	"aitax/internal/driver"
	"aitax/internal/nn"
	"aitax/internal/tensor"
)

// RuntimeKind selects the SNPE runtime a model is converted for.
type RuntimeKind int

// SNPE runtimes.
const (
	RuntimeCPU RuntimeKind = iota
	RuntimeGPU
	RuntimeDSP
)

// String names the runtime.
func (k RuntimeKind) String() string {
	switch k {
	case RuntimeCPU:
		return "CPU"
	case RuntimeGPU:
		return "GPU"
	case RuntimeDSP:
		return "DSP"
	default:
		return fmt.Sprintf("RUNTIME(%d)", int(k))
	}
}

// SDK is a process's SNPE instance, holding one target per runtime.
type SDK struct {
	CPU driver.Target
	GPU driver.Target
	DSP driver.Target
}

// target returns the driver target for a runtime kind.
func (s *SDK) target(k RuntimeKind) driver.Target {
	switch k {
	case RuntimeCPU:
		return s.CPU
	case RuntimeGPU:
		return s.GPU
	case RuntimeDSP:
		return s.DSP
	default:
		return nil
	}
}

// Net is a converted (DLC-style) model bound to one runtime.
type Net struct {
	Graph   *nn.Graph
	DType   tensor.DType
	Runtime RuntimeKind
	target  driver.Target
}

// Load converts a graph for the given runtime. Unlike NNAPI there is no
// partitioning: if any op is unsupported the conversion fails, exactly
// like an unconvertible DLC.
func (s *SDK) Load(g *nn.Graph, dt tensor.DType, k RuntimeKind) (*Net, error) {
	t := s.target(k)
	if t == nil {
		return nil, fmt.Errorf("snpe: runtime %v not configured", k)
	}
	for _, op := range g.Ops() {
		if !t.Supports(op, dt) {
			return nil, fmt.Errorf("snpe: %s: op %s (%v) unsupported on %v runtime",
				g.Name, op.Name, op.Kind, k)
		}
	}
	return &Net{Graph: g, DType: dt, Runtime: k, target: t}, nil
}

// Execute runs one inference on the bound runtime.
func (n *Net) Execute(done func(driver.Result)) {
	n.target.Execute(n.Graph.Ops(), nil, n.DType, nil, done)
}
