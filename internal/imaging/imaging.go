// Package imaging implements the image buffer formats that the Android
// camera pipeline produces and the conversions between them. These are
// real implementations, not cost stubs: the YUV→ARGB conversion here is
// the "bitmap formatting" pre-processing step the paper measures.
package imaging

import (
	"fmt"

	"aitax/internal/sim"
)

// YUVImage is a camera frame in the YUV 4:2:0 NV21 layout used by the
// Android Camera API: a full-resolution Y plane followed by an interleaved
// VU plane at quarter resolution.
type YUVImage struct {
	Width, Height int
	Y             []byte // len = Width*Height
	VU            []byte // len = Width*Height/2, pairs of (V, U)
}

// NewYUV allocates a black NV21 frame. Width and height must be even.
func NewYUV(width, height int) *YUVImage {
	if width <= 0 || height <= 0 || width%2 != 0 || height%2 != 0 {
		panic(fmt.Sprintf("imaging: invalid NV21 dimensions %dx%d", width, height))
	}
	return &YUVImage{
		Width:  width,
		Height: height,
		Y:      make([]byte, width*height),
		VU:     make([]byte, width*height/2),
	}
}

// Bytes returns the frame size in bytes (1.5 bytes/pixel).
func (img *YUVImage) Bytes() int { return len(img.Y) + len(img.VU) }

// ARGBImage is a packed 32-bit ARGB_8888 bitmap, the standard Android
// Bitmap configuration.
type ARGBImage struct {
	Width, Height int
	Pix           []uint32 // 0xAARRGGBB
}

// NewARGB allocates a transparent-black ARGB bitmap.
func NewARGB(width, height int) *ARGBImage {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("imaging: invalid ARGB dimensions %dx%d", width, height))
	}
	return &ARGBImage{Width: width, Height: height, Pix: make([]uint32, width*height)}
}

// Bytes returns the bitmap size in bytes (4 bytes/pixel).
func (img *ARGBImage) Bytes() int { return len(img.Pix) * 4 }

// At returns the pixel at (x, y).
func (img *ARGBImage) At(x, y int) uint32 { return img.Pix[y*img.Width+x] }

// Set stores the pixel at (x, y).
func (img *ARGBImage) Set(x, y int, p uint32) { img.Pix[y*img.Width+x] = p }

// RGB unpacks a pixel into its 8-bit channels.
func RGB(p uint32) (r, g, b uint8) {
	return uint8(p >> 16), uint8(p >> 8), uint8(p)
}

// PackRGB builds an opaque ARGB pixel from 8-bit channels.
func PackRGB(r, g, b uint8) uint32 {
	return 0xFF000000 | uint32(r)<<16 | uint32(g)<<8 | uint32(b)
}

func clampU8(v int) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// YUVToARGB converts an NV21 frame to an ARGB_8888 bitmap using the BT.601
// integer conversion the Android framework applies. This is the real work
// the "bitmap formatting" stage performs.
func YUVToARGB(src *YUVImage) *ARGBImage {
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

// ARGBToYUV converts a bitmap back to NV21 (BT.601), flooring odd
// dimensions to even; each chroma pair samples the top-left pixel of
// its 2x2 block. SyntheticFrame encodes through it, and tests use it to
// check that the conversion round-trips within quantization error.
func ARGBToYUV(src *ARGBImage) *YUVImage {
	dst := NewYUV(src.Width&^1, src.Height&^1)
	w, h := dst.Width, dst.Height
	for j := 0; j < h; j++ {
		for i := 0; i < w; i++ {
			r, g, b := RGB(src.Pix[j*src.Width+i])
			dst.Y[j*w+i] = uint8(luma(r, g, b))
			if j%2 == 0 && i%2 == 0 {
				v, u := chroma(r, g, b)
				dst.VU[(j/2)*w+i] = uint8(v)
				dst.VU[(j/2)*w+i+1] = uint8(u)
			}
		}
	}
	return dst
}

// luma and chroma compute one pixel's NV21 bytes (BT.601: luma offset
// 16, chroma bias 128). They need no clamp: over all 2^24 colors luma
// stays within [16, 235] and chroma within [16, 240]
// (TestEncodeBytesNeverClamp).
func luma(r, g, b uint8) int {
	return (66*int(r)+129*int(g)+25*int(b)+128)>>8 + 16
}

func chroma(r, g, b uint8) (v, u int) {
	v = (112*int(r)-94*int(g)-18*int(b)+128)>>8 + 128
	u = (-38*int(r)-74*int(g)+112*int(b)+128)>>8 + 128
	return v, u
}

// SyntheticScene deterministically paints a procedural test frame:
// a smooth two-axis gradient background with rectangles and a disc, plus
// seeded per-pixel noise. Content is irrelevant to pre-processing cost,
// but structured frames give post-processing stages non-trivial inputs.
func SyntheticScene(width, height int, seed uint64) *ARGBImage {
	rng := sim.NewRNG(seed)
	img := NewARGB(width, height)
	// Gradient background: red by column, green by row, blue by diagonal.
	for j := 0; j < height; j++ {
		for i := 0; i < width; i++ {
			img.Set(i, j, PackRGB(uint8(255*i/width), uint8(255*j/height), uint8((i+j)*255/(width+height))))
		}
	}
	// Rectangles simulating objects.
	for k := 0; k < 4; k++ {
		x0 := rng.Intn(width * 3 / 4)
		y0 := rng.Intn(height * 3 / 4)
		w := 1 + rng.Intn(width/4)
		h := 1 + rng.Intn(height/4)
		col := PackRGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		for j := y0; j < y0+h && j < height; j++ {
			for i := x0; i < x0+w && i < width; i++ {
				img.Set(i, j, col)
			}
		}
	}
	// Disc.
	cx, cy := width/2, height/2
	rad := min(width, height) / 6
	for j := cy - rad; j <= cy+rad; j++ {
		for i := cx - rad; i <= cx+rad; i++ {
			if i >= 0 && i < width && j >= 0 && j < height {
				dx, dy := i-cx, j-cy
				if dx*dx+dy*dy <= rad*rad {
					img.Set(i, j, PackRGB(240, 240, 240))
				}
			}
		}
	}
	// Sensor noise.
	for p := range img.Pix {
		if rng.Intn(16) == 0 {
			r, g, b := RGB(img.Pix[p])
			n := int(rng.Intn(31)) - 15
			img.Pix[p] = PackRGB(clampU8(int(r)+n), clampU8(int(g)+n), clampU8(int(b)+n))
		}
	}
	return img
}

// SyntheticFrame produces an NV21 sensor frame of the procedural scene,
// i.e. what the camera HAL would hand the application. Odd dimensions
// are floored to even.
func SyntheticFrame(width, height int, seed uint64) *YUVImage {
	return ARGBToYUV(SyntheticScene(width&^1, height&^1, seed))
}
