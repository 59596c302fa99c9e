package preproc

import (
	"testing"

	"aitax/internal/imaging"
	"aitax/internal/tensor"
)

// scalarResize is the original (pre-coefficient-cache) bilinear loop,
// kept as the reference the plan-based kernel must match bit-exactly.
func scalarResize(src *imaging.ARGBImage, dstW, dstH int) *imaging.ARGBImage {
	dst := imaging.NewARGB(dstW, dstH)
	xRatio := float64(src.Width-1) / float64(max(dstW-1, 1))
	yRatio := float64(src.Height-1) / float64(max(dstH-1, 1))
	for j := 0; j < dstH; j++ {
		sy := yRatio * float64(j)
		y0 := int(sy)
		y1 := min(y0+1, src.Height-1)
		fy := sy - float64(y0)
		row0 := src.Pix[y0*src.Width : y0*src.Width+src.Width]
		row1 := src.Pix[y1*src.Width : y1*src.Width+src.Width]
		out := dst.Pix[j*dstW : j*dstW+dstW]
		for i := 0; i < dstW; i++ {
			sx := xRatio * float64(i)
			x0 := int(sx)
			x1 := min(x0+1, src.Width-1)
			fx := sx - float64(x0)
			r00, g00, b00 := imaging.RGB(row0[x0])
			r10, g10, b10 := imaging.RGB(row0[x1])
			r01, g01, b01 := imaging.RGB(row1[x0])
			r11, g11, b11 := imaging.RGB(row1[x1])
			lerp := func(a, b, c, d uint8) uint8 {
				top := float64(a)*(1-fx) + float64(b)*fx
				bot := float64(c)*(1-fx) + float64(d)*fx
				return uint8(top*(1-fy) + bot*fy + 0.5)
			}
			out[i] = imaging.PackRGB(
				lerp(r00, r10, r01, r11),
				lerp(g00, g10, g01, g11),
				lerp(b00, b10, b01, b11),
			)
		}
	}
	return dst
}

func TestResizeBilinearMatchesScalarReference(t *testing.T) {
	for _, dims := range [][4]int{{640, 480, 224, 224}, {97, 61, 224, 224}, {224, 224, 97, 33}, {5, 5, 1, 1}} {
		src := imaging.SyntheticScene(dims[0], dims[1], 11)
		want := scalarResize(src, dims[2], dims[3])
		got := ResizeBilinear(src, dims[2], dims[3])
		for i := range want.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("%v: pixel %d = %08x, want %08x", dims, i, got.Pix[i], want.Pix[i])
			}
		}
	}
}

func TestNormalizeTableMatchesFormula(t *testing.T) {
	src := imaging.SyntheticScene(118, 74, 3)
	for _, p := range [][2]float64{{127.5, 127.5}, {0, 255}, {100, 0.017}} {
		mean, std := p[0], p[1]
		got := Normalize(src, mean, std)
		for j := 0; j < src.Height; j++ {
			for i := 0; i < src.Width; i++ {
				r, g, b := imaging.RGB(src.Pix[j*src.Width+i])
				idx := (j*src.Width + i) * 3
				for ch, v := range [3]uint8{r, g, b} {
					want := float32((float64(v) - mean) / std)
					if got.F32[idx+ch] != want {
						t.Fatalf("mean=%v std=%v px(%d,%d) ch%d = %v, want %v", mean, std, i, j, ch, got.F32[idx+ch], want)
					}
				}
			}
		}
	}
}

func TestQuantizeTableMatchesSet(t *testing.T) {
	src := imaging.SyntheticScene(118, 74, 5)
	for _, dt := range []tensor.DType{tensor.UInt8, tensor.Int8} {
		q := tensor.QuantParams{Scale: 0.0078125, ZeroPoint: 128}
		if dt == tensor.Int8 {
			q = tensor.QuantParams{Scale: 1.7, ZeroPoint: -3}
		}
		got := QuantizeInput(src, dt, q)
		for i := 0; i < src.Width*src.Height; i++ {
			r, g, b := imaging.RGB(src.Pix[i])
			for ch, v := range [3]uint8{r, g, b} {
				want := q.Quantize(float64(v), dt)
				if raw := int(got.RawAt(i*3 + ch)); raw != want {
					t.Fatalf("%v px %d ch%d = %d, want %d", dt, i, ch, raw, want)
				}
			}
		}
	}
}

func TestFusedKernelsMatchUnfused(t *testing.T) {
	src := imaging.SyntheticScene(640, 480, 9)
	mid := ResizeBilinear(src, 224, 224)

	wantN := Normalize(mid, 127.5, 127.5)
	gotN := ResizeNormalizeInto(nil, src, 224, 224, 127.5, 127.5)
	for i := range wantN.F32 {
		if gotN.F32[i] != wantN.F32[i] {
			t.Fatalf("fused normalize elem %d = %v, want %v", i, gotN.F32[i], wantN.F32[i])
		}
	}

	q := tensor.QuantParams{Scale: 1, ZeroPoint: 0}
	wantQ := QuantizeInput(mid, tensor.UInt8, q)
	gotQ := ResizeQuantizeInto(nil, src, 224, 224, tensor.UInt8, q)
	for i := range wantQ.U8 {
		if gotQ.U8[i] != wantQ.U8[i] {
			t.Fatalf("fused quantize elem %d = %d, want %d", i, gotQ.U8[i], wantQ.U8[i])
		}
	}

	qi := tensor.QuantParams{Scale: 0.5, ZeroPoint: -10}
	wantI := QuantizeInput(mid, tensor.Int8, qi)
	gotI := ResizeQuantizeInto(nil, src, 224, 224, tensor.Int8, qi)
	for i := range wantI.I8 {
		if gotI.I8[i] != wantI.I8[i] {
			t.Fatalf("fused int8 quantize elem %d = %d, want %d", i, gotI.I8[i], wantI.I8[i])
		}
	}
}

func TestRunIntoMatchesRunAndReusesBuffers(t *testing.T) {
	frame := imaging.SyntheticScene(640, 480, 21)
	specs := []Spec{
		{TargetW: 224, TargetH: 224, Mean: 127.5, Std: 127.5},
		{TargetW: 224, TargetH: 224, Quantized: true, DType: tensor.UInt8,
			Quant: tensor.QuantParams{Scale: 1, ZeroPoint: 0}},
		{CropFraction: 0.875, TargetW: 224, TargetH: 224, Mean: 0, Std: 1},
		{RotateTurns: 1, TargetW: 257, TargetH: 257, Mean: 127.5, Std: 127.5},
		{Tokenize: true, MaxTokens: 32, SampleText: "the camera app works great"},
	}
	for si, s := range specs {
		wantT, wantW := s.Run(frame)
		var sc RunScratch
		for rep := 0; rep < 3; rep++ { // repeated calls must reuse and agree
			gotT, gotW := s.RunInto(&sc, frame)
			if gotW != wantW {
				t.Fatalf("spec %d rep %d: work %+v, want %+v", si, rep, gotW, wantW)
			}
			if !gotT.Shape.Equal(wantT.Shape) || gotT.DType != wantT.DType {
				t.Fatalf("spec %d rep %d: tensor %v, want %v", si, rep, gotT, wantT)
			}
			for i, n := 0, wantT.Elems(); i < n; i++ {
				if gotT.RawAt(i) != wantT.RawAt(i) {
					t.Fatalf("spec %d rep %d: elem %d = %v, want %v", si, rep, i, gotT.RawAt(i), wantT.RawAt(i))
				}
			}
		}
	}
}
