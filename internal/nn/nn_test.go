package nn

import (
	"testing"
	"testing/quick"

	"aitax/internal/tensor"
)

func TestConvMACs(t *testing.T) {
	// 224x224x3 -> conv 32 3x3 stride 2 (MobileNet first layer):
	// out 112x112x32, MACs = 112*112*32*3*3*3 = 10,838,016.
	b := NewBuilder("m", 224, 224, 3)
	b.Conv(32, 3, 2)
	op := b.Graph().Ops()[0]
	if op.MACs != 10838016 {
		t.Fatalf("conv MACs = %d, want 10838016", op.MACs)
	}
	if op.Params != 3*3*3*32+32 {
		t.Fatalf("conv params = %d", op.Params)
	}
	if op.OutH != 112 || op.OutW != 112 {
		t.Fatalf("conv out = %dx%d, want 112x112", op.OutH, op.OutW)
	}
}

func TestDWConvMACs(t *testing.T) {
	b := NewBuilder("m", 112, 112, 32)
	b.DWConv(3, 1)
	op := b.Graph().Ops()[0]
	if op.MACs != 112*112*32*9 {
		t.Fatalf("dwconv MACs = %d", op.MACs)
	}
	if op.Params != 9*32+32 {
		t.Fatalf("dwconv params = %d", op.Params)
	}
}

func TestFCShape(t *testing.T) {
	b := NewBuilder("m", 1, 1, 1024)
	b.FC(1001)
	op := b.Graph().Ops()[0]
	if op.MACs != 1024*1001 {
		t.Fatalf("fc MACs = %d", op.MACs)
	}
	if op.Params != 1024*1001+1001 {
		t.Fatalf("fc params = %d", op.Params)
	}
}

func TestSamePaddingDims(t *testing.T) {
	b := NewBuilder("m", 7, 7, 8)
	b.Conv(8, 3, 2) // SAME: ceil(7/2) = 4
	h, w, _ := b.Shape()
	if h != 4 || w != 4 {
		t.Fatalf("SAME output = %dx%d, want 4x4", h, w)
	}
}

func TestSeparableBlockStructure(t *testing.T) {
	b := NewBuilder("m", 112, 112, 32)
	b.Separable(64, 1)
	g := b.Graph()
	kinds := []OpKind{DepthwiseConv2D, ReLU6, Conv2D, ReLU6}
	if g.NumOps() != 4 {
		t.Fatalf("separable ops = %d, want 4", g.NumOps())
	}
	for i, k := range kinds {
		if g.Ops()[i].Kind != k {
			t.Fatalf("op %d kind = %v, want %v", i, g.Ops()[i].Kind, k)
		}
	}
}

func TestInvertedResidualAddsWhenShapesMatch(t *testing.T) {
	b := NewBuilder("m", 28, 28, 32)
	b.InvertedResidual(32, 1, 6)
	hist := b.Graph().KindHistogram()
	if hist[Add] != 1 {
		t.Fatal("same-shape MBConv must add a residual")
	}
	b2 := NewBuilder("m2", 28, 28, 32)
	b2.InvertedResidual(64, 2, 6)
	if b2.Graph().KindHistogram()[Add] != 0 {
		t.Fatal("strided MBConv must not add a residual")
	}
}

func TestGlobalAvgPool(t *testing.T) {
	b := NewBuilder("m", 7, 7, 1024)
	b.GlobalAvgPool()
	h, w, c := b.Shape()
	if h != 1 || w != 1 || c != 1024 {
		t.Fatalf("gap shape = %dx%dx%d", h, w, c)
	}
}

func TestTransformerLayerCost(t *testing.T) {
	b := NewSeqBuilder("bert", 128, 512)
	b.TransformerLayer(4, 2048)
	g := b.Graph()
	// 4 projections at s*h*h + 2 attention matmuls at s*s*h + FFN 2*s*h*inner.
	s, h, inner := int64(128), int64(512), int64(2048)
	want := 4*s*h*h + 2*s*s*h + 2*s*h*inner
	if g.TotalMACs() != want {
		t.Fatalf("transformer MACs = %d, want %d", g.TotalMACs(), want)
	}
}

func TestGraphValidate(t *testing.T) {
	b := NewBuilder("ok", 8, 8, 3)
	b.Conv(8, 3, 1).ReLU().FC(10).Softmax()
	if err := b.Graph().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}

	empty := NewGraph("empty", tensor.Shape{1})
	if err := empty.Validate(); err == nil {
		t.Fatal("empty graph accepted")
	}

	dup := NewGraph("dup", tensor.Shape{1})
	dup.Append(&Op{Name: "x", Kind: ReLU, OutC: 1})
	dup.Append(&Op{Name: "x", Kind: ReLU, OutC: 1})
	if err := dup.Validate(); err == nil {
		t.Fatal("duplicate names accepted")
	}

	badConv := NewGraph("bad", tensor.Shape{1})
	badConv.Append(&Op{Name: "c", Kind: Conv2D})
	if err := badConv.Validate(); err == nil {
		t.Fatal("conv without shape accepted")
	}
}

func TestFLOPsIsTwiceMACs(t *testing.T) {
	op := &Op{Name: "c", Kind: Conv2D, MACs: 100}
	if op.FLOPs() != 200 {
		t.Fatalf("FLOPs = %d, want 200", op.FLOPs())
	}
}

func TestElementwiseFLOPs(t *testing.T) {
	op := &Op{Name: "r", Kind: ReLU, OutH: 4, OutW: 4, OutC: 2}
	if op.FLOPs() != 32 {
		t.Fatalf("relu FLOPs = %d, want 32", op.FLOPs())
	}
	pool := &Op{Name: "p", Kind: MaxPool, OutH: 2, OutW: 2, OutC: 2, KH: 3, KW: 3}
	if pool.FLOPs() != 8*9 {
		t.Fatalf("pool FLOPs = %d, want 72", pool.FLOPs())
	}
}

func TestWeightActivationBytes(t *testing.T) {
	op := &Op{Name: "f", Kind: FullyConnected, InH: 1, InW: 1, InC: 10,
		OutH: 1, OutW: 1, OutC: 5, Params: 55, MACs: 50}
	if op.WeightBytes(tensor.Float32) != 220 {
		t.Fatalf("fp32 weights = %d", op.WeightBytes(tensor.Float32))
	}
	if op.WeightBytes(tensor.Int8) != 55 {
		t.Fatalf("int8 weights = %d", op.WeightBytes(tensor.Int8))
	}
	if op.ActivationBytes(tensor.Float32) != (10+5)*4 {
		t.Fatalf("act bytes = %d", op.ActivationBytes(tensor.Float32))
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := Conv2D; k <= LocalResponseNorm; k++ {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", int(k))
		}
	}
	if Conv2D.String() != "CONV_2D" {
		t.Fatalf("conv name = %s", Conv2D.String())
	}
}

func TestGraphAggregates(t *testing.T) {
	b := NewBuilder("agg", 32, 32, 3)
	b.Conv(16, 3, 1).ReLU().Conv(32, 3, 2).ReLU().FC(10)
	g := b.Graph()
	var macs, params int64
	for _, op := range g.Ops() {
		macs += op.MACs
		params += op.Params
	}
	if g.TotalMACs() != macs || g.TotalParams() != params {
		t.Fatal("aggregates disagree with op sum")
	}
	if g.TotalFLOPs() < 2*macs {
		t.Fatal("FLOPs must be at least 2×MACs")
	}
	if g.Summary() == "" || g.Dump() == "" {
		t.Fatal("summary/dump empty")
	}
}

func TestQuickConvOutputDims(t *testing.T) {
	// Property: SAME-padding output dims are ceil(in/stride) for any size.
	f := func(in, stride uint8) bool {
		i, s := int(in%200)+1, int(stride%3)+1
		b := NewBuilder("q", i, i, 3)
		b.Conv(4, 3, s)
		h, w, _ := b.Shape()
		want := (i + s - 1) / s
		return h == want && w == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestUpsampleAndConcat(t *testing.T) {
	b := NewBuilder("d", 33, 33, 256)
	b.Upsample(513, 513)
	h, w, _ := b.Shape()
	if h != 513 || w != 513 {
		t.Fatalf("upsample = %dx%d", h, w)
	}
	b.Concat(512)
	_, _, c := b.Shape()
	if c != 512 {
		t.Fatalf("concat c = %d", c)
	}
}

func TestEmbeddingParams(t *testing.T) {
	b := NewSeqBuilder("e", 128, 512)
	b.Embedding(30522)
	op := b.Graph().Ops()[0]
	if op.Params != 30522*512 {
		t.Fatalf("embedding params = %d", op.Params)
	}
}

// zooGraph rebuilds a model graph by name without importing the models
// package (which would create an import cycle in tests).
func zooGraph(t *testing.T, name string) *Graph {
	t.Helper()
	switch name {
	case "MobileNet 1.0 v1":
		b := NewBuilder(name, 224, 224, 3)
		b.Conv(32, 3, 2).ReLU6()
		for _, c := range []struct{ c, s int }{{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {512, 1}, {1024, 2}, {1024, 1}} {
			b.Separable(c.c, c.s)
		}
		b.GlobalAvgPool().FC(1001).Softmax()
		return b.Graph()
	case "EfficientNet-Lite0":
		b := NewBuilder(name, 224, 224, 3)
		b.Conv(32, 3, 2).ReLU6()
		b.InvertedResidual(16, 1, 1)
		b.InvertedResidual(24, 2, 6)
		b.InvertedResidual(24, 1, 6)
		b.Conv(1280, 1, 1).ReLU6().GlobalAvgPool().FC(1001).Softmax()
		return b.Graph()
	default: // "Inception v3" stand-in: stem only, enough structure
		b := NewBuilder(name, 299, 299, 3)
		b.Conv(32, 3, 2).ReLU().Conv(32, 3, 1).ReLU().Conv(64, 3, 1).ReLU().MaxPool(3, 2)
		b.GlobalAvgPool().FC(1001).Softmax()
		return b.Graph()
	}
}
