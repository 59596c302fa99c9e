// Package nn defines the neural-network graph intermediate representation
// used by the model zoo and the runtimes: a sequence of operations, each
// carrying enough shape information to account for its FLOPs, weight
// footprint and activation traffic. Frameworks partition and schedule at
// this "operation" granularity, exactly as NNAPI does (paper §II-D).
package nn

import (
	"fmt"

	"aitax/internal/tensor"
	"aitax/internal/work"
)

// OpKind enumerates the operation types the model zoo uses.
type OpKind int

// Operation kinds. The set covers the eleven Table-I models: CNN ops,
// SSD/DeepLab heads, and MobileBERT's transformer ops.
const (
	Conv2D OpKind = iota
	DepthwiseConv2D
	FullyConnected
	AvgPool
	MaxPool
	ReLU
	ReLU6
	Sigmoid
	Softmax
	Add
	Mul
	Concat
	Reshape
	ResizeBilinearOp // in-graph upsampling (DeepLab decoder)
	MatMul           // attention score/context products
	LayerNorm
	GELU
	Embedding
	LocalResponseNorm // AlexNet-era normalization
)

var opKindNames = map[OpKind]string{
	Conv2D:            "CONV_2D",
	DepthwiseConv2D:   "DEPTHWISE_CONV_2D",
	FullyConnected:    "FULLY_CONNECTED",
	AvgPool:           "AVERAGE_POOL_2D",
	MaxPool:           "MAX_POOL_2D",
	ReLU:              "RELU",
	ReLU6:             "RELU6",
	Sigmoid:           "LOGISTIC",
	Softmax:           "SOFTMAX",
	Add:               "ADD",
	Mul:               "MUL",
	Concat:            "CONCATENATION",
	Reshape:           "RESHAPE",
	ResizeBilinearOp:  "RESIZE_BILINEAR",
	MatMul:            "BATCH_MATMUL",
	LayerNorm:         "LAYER_NORM",
	GELU:              "GELU",
	Embedding:         "EMBEDDING_LOOKUP",
	LocalResponseNorm: "LOCAL_RESPONSE_NORMALIZATION",
}

// String returns the NNAPI-style operation name.
func (k OpKind) String() string {
	if s, ok := opKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("OP(%d)", int(k))
}

// Op is one operation in a model graph. Spatial ops use the H/W/C fields;
// transformer ops use Seq/Hidden/Inner. Params is the weight element
// count; MACs is the multiply-accumulate count, both set by the layer
// builders in layers.go.
type Op struct {
	Name string
	Kind OpKind

	// Spatial shapes (NHWC, batch 1).
	InH, InW, InC    int
	OutH, OutW, OutC int
	KH, KW           int
	Stride           int
	Dilation         int

	// Transformer shapes.
	Seq, Hidden, Inner, Heads int

	Params int64 // weight elements
	MACs   int64 // multiply-accumulates
}

// FLOPs returns the floating-point operation count (2 per MAC, or an
// element-wise estimate for non-MAC ops).
func (o *Op) FLOPs() int64 {
	if o.MACs > 0 {
		return 2 * o.MACs
	}
	n := o.OutElems()
	switch o.Kind {
	case ReLU, ReLU6, Add, Mul, Reshape, Concat:
		return n
	case Sigmoid, Softmax, GELU:
		return 8 * n
	case LayerNorm:
		return 6 * n
	case AvgPool, MaxPool:
		k := int64(o.KH * o.KW)
		if k == 0 {
			k = 1
		}
		return n * k
	case ResizeBilinearOp:
		return 8 * n
	case LocalResponseNorm:
		return 10 * n
	case Embedding:
		return n
	default:
		return n
	}
}

// OutElems returns the output activation element count.
func (o *Op) OutElems() int64 {
	if o.Seq > 0 {
		inner := o.Inner
		if inner == 0 {
			inner = o.Hidden
		}
		return int64(o.Seq) * int64(inner)
	}
	h, w, c := o.OutH, o.OutW, o.OutC
	if h == 0 {
		h = 1
	}
	if w == 0 {
		w = 1
	}
	if c == 0 {
		c = 1
	}
	return int64(h) * int64(w) * int64(c)
}

// InElems returns the input activation element count.
func (o *Op) InElems() int64 {
	if o.Seq > 0 {
		hidden := o.Hidden
		if hidden == 0 {
			hidden = 1
		}
		return int64(o.Seq) * int64(hidden)
	}
	h, w, c := o.InH, o.InW, o.InC
	if h == 0 {
		h = 1
	}
	if w == 0 {
		w = 1
	}
	if c == 0 {
		c = 1
	}
	return int64(h) * int64(w) * int64(c)
}

// WeightBytes returns the weight footprint for element type dt.
func (o *Op) WeightBytes(dt tensor.DType) int64 {
	return o.Params * int64(dt.Size())
}

// ActivationBytes returns input+output activation traffic for dt.
func (o *Op) ActivationBytes(dt tensor.DType) int64 {
	return (o.InElems() + o.OutElems()) * int64(dt.Size())
}

// Work returns the op's device-independent compute demand for dt.
func (o *Op) Work(dt tensor.DType) work.Work {
	return work.Work{
		Ops:          o.FLOPs(),
		Bytes:        o.ActivationBytes(dt) + o.WeightBytes(dt),
		Vectorizable: true,
	}
}

// Validate checks the op's shape bookkeeping.
func (o *Op) Validate() error {
	if o.Name == "" {
		return fmt.Errorf("nn: op with empty name (kind %v)", o.Kind)
	}
	if o.MACs < 0 || o.Params < 0 {
		return fmt.Errorf("nn: op %s has negative MACs/Params", o.Name)
	}
	switch o.Kind {
	case Conv2D, DepthwiseConv2D:
		if o.KH <= 0 || o.KW <= 0 || o.Stride <= 0 {
			return fmt.Errorf("nn: op %s missing kernel/stride", o.Name)
		}
		if o.OutH <= 0 || o.OutW <= 0 || o.OutC <= 0 {
			return fmt.Errorf("nn: op %s missing output shape", o.Name)
		}
		if o.MACs == 0 {
			return fmt.Errorf("nn: conv op %s has zero MACs", o.Name)
		}
	case FullyConnected, MatMul:
		if o.MACs == 0 {
			return fmt.Errorf("nn: matmul op %s has zero MACs", o.Name)
		}
	}
	return nil
}
