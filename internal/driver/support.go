package driver

import (
	"aitax/internal/nn"
	"aitax/internal/tensor"
)

// Support matrices. These encode the §IV-B driver-quality landscape:
// which ops each delegate/vendor driver can actually run, per precision.
// What a matrix rejects is exactly what NNAPI's partitioner sends back to
// the CPU — the mechanism behind the Fig. 5 cliff and Inception's
// half-on-CPU execution.

func isQuant(dt tensor.DType) bool { return dt == tensor.Int8 || dt == tensor.UInt8 }

// GPUDelegateSupports is the open-source TFLite GPU delegate: fp32 only,
// standard CNN ops, square kernels (rectangular 1×7/7×1 convolutions are
// not covered by its shader set).
func GPUDelegateSupports(op *nn.Op, dt tensor.DType) bool {
	if isQuant(dt) {
		return false
	}
	switch op.Kind {
	case nn.Conv2D, nn.DepthwiseConv2D:
		return op.KH == op.KW
	case nn.FullyConnected, nn.AvgPool, nn.MaxPool,
		nn.ReLU, nn.ReLU6, nn.Sigmoid, nn.Softmax,
		nn.Add, nn.Mul, nn.Concat, nn.Reshape, nn.ResizeBilinearOp:
		return true
	default:
		// No LRN, no transformer ops.
		return false
	}
}

// HexagonDelegateSupports is the open-source TFLite Hexagon delegate:
// quantized models only, core CNN ops including quantized Add.
func HexagonDelegateSupports(op *nn.Op, dt tensor.DType) bool {
	if !isQuant(dt) {
		return false
	}
	switch op.Kind {
	case nn.Conv2D, nn.DepthwiseConv2D:
		return op.KH == op.KW
	case nn.FullyConnected, nn.AvgPool, nn.MaxPool,
		nn.ReLU, nn.ReLU6, nn.Softmax, nn.Add, nn.Concat, nn.Reshape:
		return true
	default:
		return false
	}
}

// NNAPIVendorSupports is the vendor-implemented NNAPI driver of the
// studied Snapdragons. The fp32 path (GPU-backed) mirrors the GPU
// delegate's coverage. The int8 path (DSP-backed) lags the open Hexagon
// delegate on one operator: the quantized ADD variant that newer model
// implementations (EfficientNet-Lite's MBConv residuals, MobileNet v2
// backbones) use. Graphs containing it shatter into many partitions,
// and NNAPI abandons the plan for its single-threaded reference CPU
// path — the paper's Fig. 5/Fig. 6 pathology.
func NNAPIVendorSupports(op *nn.Op, dt tensor.DType) bool {
	if !isQuant(dt) {
		return GPUDelegateSupports(op, dt)
	}
	switch op.Kind {
	case nn.Conv2D, nn.DepthwiseConv2D:
		return true // DSP handles rectangular kernels too
	case nn.FullyConnected, nn.MaxPool, nn.AvgPool, nn.ReLU, nn.ReLU6,
		nn.Softmax, nn.Reshape, nn.Concat:
		return true
	case nn.Add:
		// Missing INT8 operator variant (lagging driver support, §IV-B).
		return false
	default:
		return false
	}
}

// SNPESupports is the vendor-tuned Qualcomm stack: optimized support for
// the full CNN op set at both precisions on the DSP (§IV-B: "the SoC
// vendor-specific software is highly tuned ... provides optimized
// support for the neural network operators").
func SNPESupports(op *nn.Op, dt tensor.DType) bool {
	switch op.Kind {
	case nn.Conv2D, nn.DepthwiseConv2D, nn.FullyConnected,
		nn.AvgPool, nn.MaxPool, nn.ReLU, nn.ReLU6, nn.Sigmoid, nn.Softmax,
		nn.Add, nn.Mul, nn.Concat, nn.Reshape, nn.ResizeBilinearOp,
		nn.LocalResponseNorm:
		return true
	default:
		// Transformer ops still run on CPU even under SNPE.
		return false
	}
}
