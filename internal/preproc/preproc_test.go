package preproc

import (
	"testing"
	"testing/quick"

	"aitax/internal/imaging"
	"aitax/internal/tensor"
)

func gradient(w, h int) *imaging.ARGBImage {
	img := imaging.NewARGB(w, h)
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			img.Set(i, j, imaging.PackRGB(uint8(255*i/w), uint8(255*j/h), 128))
		}
	}
	return img
}

func TestResizeBilinearDims(t *testing.T) {
	src := gradient(640, 480)
	dst := ResizeBilinear(src, 224, 224)
	if dst.Width != 224 || dst.Height != 224 {
		t.Fatalf("resized dims = %dx%d", dst.Width, dst.Height)
	}
}

func TestResizeBilinearIdentity(t *testing.T) {
	src := gradient(64, 64)
	dst := ResizeBilinear(src, 64, 64)
	for i := range src.Pix {
		if src.Pix[i] != dst.Pix[i] {
			t.Fatal("identity resize altered pixels")
		}
	}
}

func TestResizeBilinearPreservesConstant(t *testing.T) {
	src := imaging.NewARGB(100, 80)
	for i := range src.Pix {
		src.Pix[i] = imaging.PackRGB(10, 200, 77)
	}
	dst := ResizeBilinear(src, 33, 57)
	for _, p := range dst.Pix {
		r, g, b := imaging.RGB(p)
		if r != 10 || g != 200 || b != 77 {
			t.Fatalf("constant image changed: %d,%d,%d", r, g, b)
		}
	}
}

func TestResizeBilinearMonotoneGradient(t *testing.T) {
	// Downscaling a horizontal ramp must remain (weakly) monotone.
	src := gradient(256, 16)
	dst := ResizeBilinear(src, 64, 8)
	for j := 0; j < dst.Height; j++ {
		prev := -1
		for i := 0; i < dst.Width; i++ {
			r, _, _ := imaging.RGB(dst.At(i, j))
			if int(r) < prev {
				t.Fatalf("gradient non-monotone at (%d,%d)", i, j)
			}
			prev = int(r)
		}
	}
}

func TestCenterCrop(t *testing.T) {
	src := gradient(100, 100)
	dst := CenterCrop(src, 50, 50)
	if dst.Width != 50 || dst.Height != 50 {
		t.Fatalf("crop dims = %dx%d", dst.Width, dst.Height)
	}
	if dst.At(0, 0) != src.At(25, 25) {
		t.Fatal("crop not centered")
	}
	// Oversized crop clamps to source.
	big := CenterCrop(src, 500, 500)
	if big.Width != 100 || big.Height != 100 {
		t.Fatalf("oversized crop = %dx%d", big.Width, big.Height)
	}
}

func TestCropFraction(t *testing.T) {
	src := gradient(200, 100)
	dst := CropFraction(src, 0.875)
	if dst.Width != 175 || dst.Height != 87 {
		t.Fatalf("crop fraction dims = %dx%d", dst.Width, dst.Height)
	}
}

func TestRotate90RoundTrip(t *testing.T) {
	src := gradient(31, 17)
	r := Rotate90(src, 4)
	for i := range src.Pix {
		if r.Pix[i] != src.Pix[i] {
			t.Fatal("4 quarter turns must be identity")
		}
	}
	// 1 turn then 3 turns = identity.
	r13 := Rotate90(Rotate90(src, 1), 3)
	for i := range src.Pix {
		if r13.Pix[i] != src.Pix[i] {
			t.Fatal("1+3 quarter turns must be identity")
		}
	}
}

func TestRotate90Dimensions(t *testing.T) {
	src := gradient(30, 20)
	r1 := Rotate90(src, 1)
	if r1.Width != 20 || r1.Height != 30 {
		t.Fatalf("90° dims = %dx%d", r1.Width, r1.Height)
	}
	// Top-left goes to top-right under 90° cw.
	if r1.At(19, 0) != src.At(0, 0) {
		t.Fatal("90° rotation mapping wrong")
	}
	r2 := Rotate90(src, 2)
	if r2.At(29, 19) != src.At(0, 0) {
		t.Fatal("180° rotation mapping wrong")
	}
	rneg := Rotate90(src, -1)
	r3 := Rotate90(src, 3)
	for i := range rneg.Pix {
		if rneg.Pix[i] != r3.Pix[i] {
			t.Fatal("-1 and 3 quarter turns must agree")
		}
	}
}

func TestNormalize(t *testing.T) {
	src := imaging.NewARGB(2, 2)
	src.Set(0, 0, imaging.PackRGB(127, 0, 255))
	out := Normalize(src, 127.5, 127.5)
	if out.DType != tensor.Float32 || !out.Shape.Equal(tensor.Shape{1, 2, 2, 3}) {
		t.Fatalf("normalize output %v", out)
	}
	if v := out.F32[0]; v < -0.01 || v > 0.01 {
		t.Fatalf("normalized 127 = %v, want ~0", v)
	}
	if v := out.F32[1]; v != -1 {
		t.Fatalf("normalized 0 = %v, want -1", v)
	}
	if v := out.F32[2]; v != 1 {
		t.Fatalf("normalized 255 = %v, want 1", v)
	}
}

func TestNormalizeRangeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		img := imaging.SyntheticScene(16, 16, seed)
		out := Normalize(img, 127.5, 127.5)
		for _, v := range out.F32 {
			if v < -1 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeInput(t *testing.T) {
	src := imaging.NewARGB(2, 2)
	src.Set(0, 0, imaging.PackRGB(0, 128, 255))
	q := tensor.QuantParams{Scale: 1, ZeroPoint: 0}
	out := QuantizeInput(src, tensor.UInt8, q)
	if out.U8[0] != 0 || out.U8[1] != 128 || out.U8[2] != 255 {
		t.Fatalf("quantized input = %v", out.U8[:3])
	}
}

func TestTokenize(t *testing.T) {
	vocab := BasicVocab()
	ids := Tokenize("the camera is great", vocab, 16)
	if len(ids) != 16 {
		t.Fatalf("token count = %d, want 16 (padded)", len(ids))
	}
	if ids[0] != vocab["[CLS]"] {
		t.Fatal("missing [CLS]")
	}
	if ids[1] != vocab["the"] || ids[2] != vocab["camera"] || ids[3] != vocab["is"] || ids[4] != vocab["great"] {
		t.Fatalf("tokens = %v", ids[:6])
	}
	if ids[5] != vocab["[SEP]"] {
		t.Fatalf("missing [SEP] after words: %v", ids[:8])
	}
	for _, id := range ids[6:] {
		if id != vocab["[PAD]"] {
			t.Fatal("padding wrong")
		}
	}
}

func TestTokenizeWordPieces(t *testing.T) {
	vocab := BasicVocab()
	// "works" = "works" in vocab; "working" = "work"? not in vocab -> pieces.
	ids := Tokenize("loves", vocab, 8)
	// "loves" -> "love" + "##s"
	if ids[1] != vocab["love"] || ids[2] != vocab["##s"] {
		t.Fatalf("wordpiece split wrong: %v", ids[:4])
	}
}

func TestTokenizeTruncates(t *testing.T) {
	vocab := BasicVocab()
	long := ""
	for i := 0; i < 100; i++ {
		long += "the "
	}
	ids := Tokenize(long, vocab, 10)
	if len(ids) != 10 {
		t.Fatalf("truncated len = %d, want 10", len(ids))
	}
	if ids[9] != vocab["[SEP]"] {
		t.Fatal("[SEP] must terminate truncated sequence")
	}
}

func TestSpecRunVision(t *testing.T) {
	frame := imaging.SyntheticScene(640, 480, 1)
	spec := Spec{CropFraction: 0.875, TargetW: 224, TargetH: 224, Mean: 127.5, Std: 127.5}
	out, w := spec.Run(frame)
	if !out.Shape.Equal(tensor.Shape{1, 224, 224, 3}) {
		t.Fatalf("output shape %v", out.Shape)
	}
	if w.Ops == 0 || w.Bytes == 0 {
		t.Fatal("work must be non-zero")
	}
	if spec.Tasks() != "scale, crop, normalize" {
		t.Fatalf("tasks = %q", spec.Tasks())
	}
}

func TestSpecRunQuantized(t *testing.T) {
	frame := imaging.SyntheticScene(640, 480, 1)
	spec := Spec{TargetW: 224, TargetH: 224, Quantized: true,
		DType: tensor.UInt8, Quant: tensor.QuantParams{Scale: 1}}
	out, _ := spec.Run(frame)
	if out.DType != tensor.UInt8 {
		t.Fatalf("dtype = %v", out.DType)
	}
}

func TestSpecRunTokenize(t *testing.T) {
	spec := Spec{Tokenize: true, MaxTokens: 32, SampleText: "this phone is fast"}
	out, w := spec.Run(nil)
	if !out.Shape.Equal(tensor.Shape{1, 32}) {
		t.Fatalf("shape = %v", out.Shape)
	}
	if w.Ops == 0 {
		t.Fatal("tokenize work is zero")
	}
	if spec.Tasks() != "tokenization" {
		t.Fatalf("tasks = %q", spec.Tasks())
	}
}

func TestSpecWorkMatchesRunShape(t *testing.T) {
	frame := imaging.SyntheticScene(320, 240, 2)
	spec := Spec{TargetW: 128, TargetH: 128, Mean: 0, Std: 255, RotateTurns: 1}
	_, ran := spec.Run(frame)
	est := spec.Work(320, 240)
	if est.Ops != ran.Ops {
		t.Fatalf("estimated ops %d != run ops %d", est.Ops, ran.Ops)
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{TargetW: 224, TargetH: 224, Std: 127.5}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{TargetW: 224},             // mismatched target
		{TargetW: -1, TargetH: -1}, // negative
		{CropFraction: 1.5},        // fraction out of range
		{Quantized: true, DType: tensor.Float32, TargetW: 8, TargetH: 8}, // wrong dtype
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestWorkScalesWithResolution(t *testing.T) {
	small := Spec{TargetW: 224, TargetH: 224, Std: 1}.Work(640, 480)
	large := Spec{TargetW: 513, TargetH: 513, Std: 1}.Work(640, 480)
	if large.Ops <= small.Ops {
		t.Fatal("larger target must cost more")
	}
}

func TestResizePixelsBoundedBySourceRange(t *testing.T) {
	// Property: bilinear interpolation cannot produce values outside the
	// source's per-channel min/max.
	f := func(seed uint64, dw, dh uint8) bool {
		src := imaging.SyntheticScene(40, 30, seed)
		var rmin, rmax uint8 = 255, 0
		for _, p := range src.Pix {
			r, _, _ := imaging.RGB(p)
			if r < rmin {
				rmin = r
			}
			if r > rmax {
				rmax = r
			}
		}
		w := 8 + int(dw)%64
		h := 8 + int(dh)%64
		dst := ResizeBilinear(src, w, h)
		for _, p := range dst.Pix {
			r, _, _ := imaging.RGB(p)
			if r < rmin || r > rmax {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestNormalizeTableMatchesFormula and TestQuantizeTableMatchesSet check
// every output element against the per-channel definition.
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

// scalarResize is the bilinear loop as first written (row slices and an
// inline lerp), kept as a frozen reference ResizeBilinear must match
// bit-exactly.
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
