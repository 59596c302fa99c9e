package imaging

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestNewYUVSizes(t *testing.T) {
	img := NewYUV(640, 480)
	if len(img.Y) != 640*480 {
		t.Fatalf("Y plane = %d, want %d", len(img.Y), 640*480)
	}
	if len(img.VU) != 640*480/2 {
		t.Fatalf("VU plane = %d, want %d", len(img.VU), 640*480/2)
	}
	if img.Bytes() != 640*480*3/2 {
		t.Fatalf("bytes = %d, want 1.5/px", img.Bytes())
	}
}

func TestNewYUVRejectsOdd(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("odd dimensions must panic")
		}
	}()
	NewYUV(641, 480)
}

func TestARGBAccessors(t *testing.T) {
	img := NewARGB(10, 10)
	img.Set(3, 4, PackRGB(1, 2, 3))
	if img.At(3, 4) != 0xFF010203 {
		t.Fatalf("pixel = %#x", img.At(3, 4))
	}
	r, g, b := RGB(img.At(3, 4))
	if r != 1 || g != 2 || b != 3 {
		t.Fatalf("unpack = %d,%d,%d", r, g, b)
	}
	if img.Bytes() != 400 {
		t.Fatalf("bytes = %d, want 400", img.Bytes())
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	f := func(r, g, b uint8) bool {
		rr, gg, bb := RGB(PackRGB(r, g, b))
		return rr == r && gg == g && bb == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestYUVToARGBGray(t *testing.T) {
	// A mid-gray NV21 frame (Y=128, U=V=128) must decode to mid gray.
	src := NewYUV(16, 16)
	for i := range src.Y {
		src.Y[i] = 128
	}
	for i := range src.VU {
		src.VU[i] = 128
	}
	dst := YUVToARGB(src)
	r, g, b := RGB(dst.At(8, 8))
	for _, c := range []uint8{r, g, b} {
		if c < 120 || c > 140 {
			t.Fatalf("gray decode = %d,%d,%d, want ~130", r, g, b)
		}
	}
}

func TestYUVToARGBBlackWhite(t *testing.T) {
	src := NewYUV(4, 4)
	for i := range src.VU {
		src.VU[i] = 128
	}
	for i := range src.Y {
		src.Y[i] = 16 // video black
	}
	if r, g, b := RGB(YUVToARGB(src).At(0, 0)); r > 5 || g > 5 || b > 5 {
		t.Fatalf("black decode = %d,%d,%d", r, g, b)
	}
	for i := range src.Y {
		src.Y[i] = 235 // video white
	}
	if r, g, b := RGB(YUVToARGB(src).At(0, 0)); r < 250 || g < 250 || b < 250 {
		t.Fatalf("white decode = %d,%d,%d", r, g, b)
	}
}

func TestRGBYUVRoundTripWithinQuantization(t *testing.T) {
	// Converting ARGB -> NV21 -> ARGB must stay within chroma subsampling
	// plus rounding error for a chroma-flat image.
	img := NewARGB(32, 32)
	for j := 0; j < 32; j++ {
		for i := 0; i < 32; i++ {
			v := uint8(32 + (i+j)*3)
			img.Set(i, j, PackRGB(v, v, v)) // gray ramp: no chroma
		}
	}
	back := YUVToARGB(ARGBToYUV(img))
	var worst float64
	for j := 0; j < 32; j++ {
		for i := 0; i < 32; i++ {
			r0, g0, b0 := RGB(img.At(i, j))
			r1, g1, b1 := RGB(back.At(i, j))
			for _, d := range []float64{
				math.Abs(float64(r0) - float64(r1)),
				math.Abs(float64(g0) - float64(g1)),
				math.Abs(float64(b0) - float64(b1)),
			} {
				if d > worst {
					worst = d
				}
			}
		}
	}
	if worst > 8 {
		t.Fatalf("round-trip worst channel error %v > 8", worst)
	}
}

func TestSyntheticSceneDeterministic(t *testing.T) {
	a := SyntheticScene(64, 48, 7)
	b := SyntheticScene(64, 48, 7)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("same seed produced different scenes")
		}
	}
	c := SyntheticScene(64, 48, 8)
	diff := 0
	for i := range a.Pix {
		if a.Pix[i] != c.Pix[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical scenes")
	}
}

func TestSyntheticSceneNotFlat(t *testing.T) {
	img := SyntheticScene(64, 64, 3)
	seen := map[uint32]bool{}
	for _, p := range img.Pix {
		seen[p] = true
	}
	if len(seen) < 100 {
		t.Fatalf("scene too flat: %d distinct colors", len(seen))
	}
}

func TestSyntheticFrameDims(t *testing.T) {
	f := SyntheticFrame(639, 479, 1) // odd dims must be floored to even
	if f.Width != 638 || f.Height != 478 {
		t.Fatalf("frame dims = %dx%d", f.Width, f.Height)
	}
}

func TestClampU8(t *testing.T) {
	if clampU8(-5) != 0 || clampU8(300) != 255 || clampU8(42) != 42 {
		t.Fatal("clamp broken")
	}
}

func TestWritePPM(t *testing.T) {
	img := SyntheticScene(16, 12, 1)
	var buf bytes.Buffer
	if err := WritePPM(img, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P6\n16 12\n255\n")) {
		t.Fatalf("ppm header wrong: %q", out[:20])
	}
	header := len("P6\n16 12\n255\n")
	if len(out) != header+16*12*3 {
		t.Fatalf("ppm payload = %d bytes", len(out)-header)
	}
	// First pixel round-trips.
	r, g, b := RGB(img.At(0, 0))
	if out[header] != r || out[header+1] != g || out[header+2] != b {
		t.Fatal("first pixel mismatch")
	}
}

func TestMaskToImage(t *testing.T) {
	mask := []int{0, 1, 2, 1}
	img := MaskToImage(mask, 2, 2, nil)
	if img.At(0, 0) != MaskPalette()[0] {
		t.Fatal("background color wrong")
	}
	if img.At(1, 0) == img.At(0, 1) && mask[1] != mask[2] {
		t.Fatal("distinct classes must differ in color")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch must panic")
		}
	}()
	MaskToImage(mask, 3, 3, nil)
}

func TestMaskPaletteDistinct(t *testing.T) {
	p := MaskPalette()
	if len(p) != 21 {
		t.Fatalf("palette size = %d", len(p))
	}
	seen := map[uint32]int{}
	for i, c := range p {
		if j, dup := seen[c]; dup {
			t.Fatalf("classes %d and %d share color %#x", i, j, c)
		}
		seen[c] = i
	}
}

// scalarYUVToARGB is the BT.601 NV21 decode as first written, kept as a
// frozen reference so any rewrite of YUVToARGB is pinned bit-exact
// against it.
func scalarYUVToARGB(src *YUVImage) *ARGBImage {
	w, h := src.Width, src.Height
	dst := NewARGB(w, h)
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			y := int(src.Y[j*w+i]) - 16
			if y < 0 {
				y = 0
			}
			vuIdx := (j/2)*w + i&^1
			v := int(src.VU[vuIdx]) - 128
			u := int(src.VU[vuIdx+1]) - 128
			y1192 := 1192 * y
			r := clampU8((y1192 + 1634*v) >> 10)
			g := clampU8((y1192 - 833*v - 400*u) >> 10)
			b := clampU8((y1192 + 2066*u) >> 10)
			dst.Pix[j*w+i] = PackRGB(r, g, b)
		}
	}
	return dst
}

// scalarARGBToYUV is the frozen reference for the NV21 encode; unlike
// ARGBToYUV it clamps every byte, so it also checks that the kernel's
// clamp-free luma and chroma agree with the clamped definition.
func scalarARGBToYUV(src *ARGBImage) *YUVImage {
	dst := NewYUV(src.Width&^1, src.Height&^1)
	w, h := dst.Width, dst.Height
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			r, g, b := RGB(src.Pix[j*src.Width+i])
			y := (66*int(r) + 129*int(g) + 25*int(b) + 128) >> 8
			dst.Y[j*w+i] = clampU8(y + 16)
			if j%2 == 0 && i%2 == 0 {
				u := (-38*int(r) - 74*int(g) + 112*int(b) + 128) >> 8
				v := (112*int(r) - 94*int(g) - 18*int(b) + 128) >> 8
				dst.VU[(j/2)*w+i] = clampU8(v + 128)
				dst.VU[(j/2)*w+i+1] = clampU8(u + 128)
			}
		}
	}
	return dst
}

func TestYUVToARGBMatchesScalarReference(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		src := SyntheticFrame(118, 74, seed)
		// Exercise the full byte range, including out-of-gamut chroma.
		for i := range src.Y {
			src.Y[i] = byte((int(src.Y[i]) * 7) % 256)
		}
		for i := range src.VU {
			src.VU[i] = byte((int(src.VU[i])*11 + 3) % 256)
		}
		want := scalarYUVToARGB(src)
		got := YUVToARGB(src)
		if !bytes.Equal(pixBytes(got), pixBytes(want)) {
			t.Fatalf("seed %d: YUVToARGB differs from scalar reference", seed)
		}
	}
}

func TestARGBToYUVMatchesScalarReference(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		src := SyntheticScene(118, 74, seed)
		want := scalarARGBToYUV(src)
		got := ARGBToYUV(src)
		if !bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.VU, want.VU) {
			t.Fatalf("seed %d: ARGBToYUV differs from scalar reference", seed)
		}
	}
}

func pixBytes(img *ARGBImage) []byte {
	out := make([]byte, 0, len(img.Pix)*4)
	for _, p := range img.Pix {
		out = append(out, byte(p>>24), byte(p>>16), byte(p>>8), byte(p))
	}
	return out
}
