package imaging

import "testing"

// TestEncodeBytesNeverClamp exhaustively proves the claim that lets
// ARGBToYUV skip clamping: over the entire 2^24 RGB cube luma stays in
// [16, 235] and both chroma bytes in [16, 240], so a clamp could never
// change an output byte.
func TestEncodeBytesNeverClamp(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive RGB cube sweep")
	}
	for r := 0; r < 256; r++ {
		for g := 0; g < 256; g++ {
			for b := 0; b < 256; b++ {
				if y := luma(uint8(r), uint8(g), uint8(b)); y < 16 || y > 235 {
					t.Fatalf("luma %d out of range for rgb(%d,%d,%d)", y, r, g, b)
				}
				v, u := chroma(uint8(r), uint8(g), uint8(b))
				if v < 16 || v > 240 || u < 16 || u > 240 {
					t.Fatalf("chroma (%d, %d) out of range for rgb(%d,%d,%d)", v, u, r, g, b)
				}
			}
		}
	}
}

// FuzzYUVConversion drives the NV21 decode with arbitrary plane bytes
// and the encode with the decoded bitmap: neither may panic, the decode
// must fill every output pixel with an opaque color, and both must keep
// the frame's dimensions.
func FuzzYUVConversion(f *testing.F) {
	f.Add([]byte{128, 128, 128, 128}, []byte{128, 128})
	f.Add([]byte{0, 255, 16, 235}, []byte{255, 0})
	f.Fuzz(func(t *testing.T, y, vu []byte) {
		const w, h = 4, 4
		img := NewYUV(w, h)
		copy(img.Y, y)
		copy(img.VU, vu)
		out := YUVToARGB(img)
		if out.Width != w || out.Height != h || len(out.Pix) != w*h {
			t.Fatal("dims wrong")
		}
		for _, p := range out.Pix {
			if p>>24 != 0xFF {
				t.Fatalf("non-opaque pixel %#x", p)
			}
		}
		back := ARGBToYUV(out)
		if back.Width != w || back.Height != h || len(back.Y) != w*h || len(back.VU) != w*h/2 {
			t.Fatal("round-trip dims wrong")
		}
	})
}
