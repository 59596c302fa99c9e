// Package imaging implements the image buffer formats that the Android
// camera pipeline produces and the conversions between them. These are
// real implementations, not cost stubs: the YUV→ARGB conversion here is
// the "bitmap formatting" pre-processing step the paper measures.
package imaging

import (
	"encoding/binary"
	"fmt"

	"aitax/internal/par"
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

func checkYUVDims(width, height int) {
	if width <= 0 || height <= 0 || width%2 != 0 || height%2 != 0 {
		panic(fmt.Sprintf("imaging: invalid NV21 dimensions %dx%d", width, height))
	}
}

// NewYUV allocates a black NV21 frame. Width and height must be even.
func NewYUV(width, height int) *YUVImage {
	checkYUVDims(width, height)
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

func checkARGBDims(width, height int) {
	if width <= 0 || height <= 0 {
		panic(fmt.Sprintf("imaging: invalid ARGB dimensions %dx%d", width, height))
	}
}

// NewARGB allocates a transparent-black ARGB bitmap.
func NewARGB(width, height int) *ARGBImage {
	checkARGBDims(width, height)
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

// Fixed-point coefficient tables for the BT.601 conversions. Each table
// is one term of the original per-pixel integer expressions, precomputed
// over the 256 possible byte values, so the kernels replace multiplies
// with lookups while producing bit-identical sums (the arithmetic is the
// same int math, merely hoisted; TestYUVToARGBMatchesScalarReference and
// TestARGBToYUVMatchesScalarReference pin the equivalence).
var (
	// YUV -> ARGB: r = (1192*y' + 1634*v') >> 10, etc., with
	// y' = max(Y-16, 0) and u'/v' = U/V - 128.
	lumTab [256]int32 // 1192 * max(y-16, 0)
	rvTab  [256]int32 // 1634 * (v-128)
	gvTab  [256]int32 // -833 * (v-128)
	guTab  [256]int32 // -400 * (u-128)
	buTab  [256]int32 // 2066 * (u-128)

	// ARGB -> YUV: y = (66r + 129g + 25b + 128) >> 8, etc.
	yrTab, ygTab, ybTab [256]int32 // 66r, 129g, 25b
	urTab, ugTab, ubTab [256]int32 // -38r, -74g, 112b
	vrTab, vgTab, vbTab [256]int32 // 112r, -94g, -18b
)

func init() {
	for i := 0; i < 256; i++ {
		y := i - 16
		if y < 0 {
			y = 0
		}
		lumTab[i] = int32(1192 * y)
		c := i - 128
		rvTab[i] = int32(1634 * c)
		gvTab[i] = int32(-833 * c)
		guTab[i] = int32(-400 * c)
		buTab[i] = int32(2066 * c)
		yrTab[i], ygTab[i], ybTab[i] = int32(66*i), int32(129*i), int32(25*i)
		urTab[i], ugTab[i], ubTab[i] = int32(-38*i), int32(-74*i), int32(112*i)
		vrTab[i], vgTab[i], vbTab[i] = int32(112*i), int32(-94*i), int32(-18*i)
	}
}

// YUVToARGB converts an NV21 frame to an ARGB_8888 bitmap using the BT.601
// integer conversion the Android framework applies. This is the real work
// the "bitmap formatting" stage performs.
func YUVToARGB(src *YUVImage) *ARGBImage {
	return YUVToARGBInto(NewARGB(src.Width, src.Height), src)
}

// yuvToARGBTask tiles the conversion by output row; each NV21 chroma row
// serves a pair of luma rows read-only, so row tiles are independent.
type yuvToARGBTask struct {
	dst *ARGBImage
	src *YUVImage
}

var yuvToARGBTasks par.Spare[yuvToARGBTask]

func (t *yuvToARGBTask) Tile(lo, hi int) {
	src, dst := t.src, t.dst
	w := src.Width
	for j := lo; j < hi; j++ {
		yRow := src.Y[j*w : j*w+w]
		vuRow := src.VU[(j/2)*w : (j/2)*w+w]
		out := dst.Pix[j*w : j*w+w]
		// SWAR main loop: one uint64 load grabs 8 luma bytes and another
		// grabs 4 (V, U) chroma pairs, so the inner loop extracts channel
		// bytes by shifting registers instead of eight bounds-checked
		// slice reads. Clamping folds the six channel values of a pixel
		// pair into a single OR: in-gamut pairs (the overwhelming
		// majority of any real frame) take one perfectly-predicted
		// branch and pack with no per-channel clamps at all, while
		// out-of-gamut pairs fall back to the scalar clamp.
		i := 0
		for ; i+8 <= w; i += 8 {
			yv := binary.LittleEndian.Uint64(yRow[i:])
			cv := binary.LittleEndian.Uint64(vuRow[i:])
			o := out[i : i+8 : i+8]
			for k := 0; k < 8; k += 2 {
				v, u := uint8(cv), uint8(cv>>8)
				cv >>= 16
				rC, gC, bC := rvTab[v], gvTab[v]+guTab[u], buTab[u]
				y0 := lumTab[uint8(yv)]
				yv >>= 8
				y1 := lumTab[uint8(yv)]
				yv >>= 8
				r0, g0, b0 := (y0+rC)>>10, (y0+gC)>>10, (y0+bC)>>10
				r1, g1, b1 := (y1+rC)>>10, (y1+gC)>>10, (y1+bC)>>10
				if (r0|g0|b0|r1|g1|b1)&^0xFF == 0 {
					o[k] = 0xFF000000 | uint32(r0)<<16 | uint32(g0)<<8 | uint32(b0)
					o[k+1] = 0xFF000000 | uint32(r1)<<16 | uint32(g1)<<8 | uint32(b1)
				} else {
					o[k] = PackRGB(clampU8(int(r0)), clampU8(int(g0)), clampU8(int(b0)))
					o[k+1] = PackRGB(clampU8(int(r1)), clampU8(int(g1)), clampU8(int(b1)))
				}
			}
		}
		// Tail (w%8 pixels; NV21 width is even, so whole pairs remain).
		for ; i < w; i += 2 {
			v, u := vuRow[i], vuRow[i+1]
			rC, gC, bC := rvTab[v], gvTab[v]+guTab[u], buTab[u]
			y0 := lumTab[yRow[i]]
			out[i] = PackRGB(clampU8(int(y0+rC)>>10), clampU8(int(y0+gC)>>10), clampU8(int(y0+bC)>>10))
			y1 := lumTab[yRow[i+1]]
			out[i+1] = PackRGB(clampU8(int(y1+rC)>>10), clampU8(int(y1+gC)>>10), clampU8(int(y1+bC)>>10))
		}
	}
}

// YUVToARGBInto is the in-place variant of YUVToARGB: it converts into
// dst (resized to match src) and allocates nothing when dst's backing
// array is already large enough. The conversion runs on the par tile
// scheduler over precomputed coefficient tables; output is bit-identical
// to the scalar BT.601 reference at any worker count. Returns dst.
func YUVToARGBInto(dst *ARGBImage, src *YUVImage) *ARGBImage {
	dst.Resize(src.Width, src.Height)
	t := yuvToARGBTasks.Get()
	t.dst, t.src = dst, src
	par.For(src.Height, t)
	t.dst, t.src = nil, nil
	yuvToARGBTasks.Put(t)
	return dst
}

// ARGBToYUV converts a bitmap back to NV21 (BT.601). Used by tests to
// verify the conversion round-trips within quantization error.
func ARGBToYUV(src *ARGBImage) *YUVImage {
	return ARGBToYUVInto(NewYUV(src.Width&^1, src.Height&^1), src)
}

// argbToYUVTask tiles the conversion by NV21 row *pair* (one luma pair
// plus its shared chroma row), so every VU write stays inside the tile
// that owns it and tiles remain independent.
type argbToYUVTask struct {
	dst *YUVImage
	src *ARGBImage
}

var argbToYUVTasks par.Spare[argbToYUVTask]

// lumaByte computes one pixel's NV21 luma byte (BT.601, +16 offset).
// No clamp is needed: over all 2^24 RGB inputs the result stays within
// [16, 235], so the historical clampU8 never fired (pinned exhaustively
// by TestEncodeBytesNeverClamp).
func lumaByte(p uint32) uint64 {
	r, g, b := uint8(p>>16), uint8(p>>8), uint8(p)
	return uint64(((yrTab[r] + ygTab[g] + ybTab[b] + 128) >> 8) + 16)
}

// vByte and uByte compute one pixel's NV21 chroma bytes (+128 bias).
// They are separate functions (rather than one returning both) to stay
// under the inlining budget. Like lumaByte they need no clamp: results
// stay within [16, 240] over the whole RGB cube.
func vByte(p uint32) uint64 {
	r, g, b := uint8(p>>16), uint8(p>>8), uint8(p)
	return uint64(((vrTab[r] + vgTab[g] + vbTab[b] + 128) >> 8) + 128)
}

func uByte(p uint32) uint64 {
	r, g, b := uint8(p>>16), uint8(p>>8), uint8(p)
	return uint64(((urTab[r] + ugTab[g] + ubTab[b] + 128) >> 8) + 128)
}

func (t *argbToYUVTask) Tile(lo, hi int) {
	src, dst := t.src, t.dst
	w := dst.Width
	for j := 2 * lo; j < 2*hi; j++ {
		srcRow := src.Pix[j*src.Width : j*src.Width+w]
		yRow := dst.Y[j*w : j*w+w]
		if j%2 == 0 {
			vuRow := dst.VU[(j/2)*w : (j/2)*w+w]
			// SWAR main loop: 8 pixels become one packed uint64 store
			// into the Y plane plus one (4 chroma pairs from the even
			// columns) into the VU plane.
			i := 0
			for ; i+8 <= w; i += 8 {
				r8 := srcRow[i : i+8 : i+8]
				yw := lumaByte(r8[0]) | lumaByte(r8[1])<<8 | lumaByte(r8[2])<<16 |
					lumaByte(r8[3])<<24 | lumaByte(r8[4])<<32 | lumaByte(r8[5])<<40 |
					lumaByte(r8[6])<<48 | lumaByte(r8[7])<<56
				binary.LittleEndian.PutUint64(yRow[i:], yw)
				cw := vByte(r8[0]) | uByte(r8[0])<<8 | vByte(r8[2])<<16 | uByte(r8[2])<<24 |
					vByte(r8[4])<<32 | uByte(r8[4])<<40 | vByte(r8[6])<<48 | uByte(r8[6])<<56
				binary.LittleEndian.PutUint64(vuRow[i:], cw)
			}
			// Tail (w%8 pixels; width is even so chroma pairs stay whole,
			// and i stays even so the i%2 subsampling phase is preserved).
			for ; i < w; i++ {
				p := srcRow[i]
				yRow[i] = uint8(lumaByte(p))
				if i%2 == 0 {
					vuRow[i] = uint8(vByte(p))
					vuRow[i+1] = uint8(uByte(p))
				}
			}
		} else {
			i := 0
			for ; i+8 <= w; i += 8 {
				r8 := srcRow[i : i+8 : i+8]
				yw := lumaByte(r8[0]) | lumaByte(r8[1])<<8 | lumaByte(r8[2])<<16 |
					lumaByte(r8[3])<<24 | lumaByte(r8[4])<<32 | lumaByte(r8[5])<<40 |
					lumaByte(r8[6])<<48 | lumaByte(r8[7])<<56
				binary.LittleEndian.PutUint64(yRow[i:], yw)
			}
			for ; i < w; i++ {
				yRow[i] = uint8(lumaByte(srcRow[i]))
			}
		}
	}
}

// ARGBToYUVInto is the in-place variant of ARGBToYUV: it converts into
// dst (resized to src's even dimensions) and allocates nothing when
// dst's backing arrays are already large enough. Runs tiled by row pair
// on precomputed coefficient tables; bit-identical to the scalar BT.601
// reference at any worker count. Returns dst.
func ARGBToYUVInto(dst *YUVImage, src *ARGBImage) *YUVImage {
	dst.Resize(src.Width&^1, src.Height&^1)
	t := argbToYUVTasks.Get()
	t.dst, t.src = dst, src
	par.For(dst.Height/2, t)
	t.dst, t.src = nil, nil
	argbToYUVTasks.Put(t)
	return dst
}

// SyntheticScene deterministically paints a procedural test frame:
// a smooth two-axis gradient background with rectangles and a disc, plus
// seeded per-pixel noise. Content is irrelevant to pre-processing cost,
// but structured frames give post-processing stages non-trivial inputs.
func SyntheticScene(width, height int, seed uint64) *ARGBImage {
	return SyntheticSceneInto(GetARGB(width, height), seed)
}

// gradientTask fills the scene's gradient background rows from the
// per-axis tables; rows are independent, so it tiles on the scheduler.
type gradientTask struct {
	img   *ARGBImage
	rCol  []uint32
	bDiag []uint32
}

func (t *gradientTask) Tile(lo, hi int) {
	width := t.img.Width
	for j := lo; j < hi; j++ {
		gRow := 0xFF000000 | uint32(uint8(255*j/t.img.Height))<<8
		row := t.img.Pix[j*width : j*width+width]
		diag := t.bDiag[j : j+width]
		for i := range row {
			row[i] = gRow | t.rCol[i] | diag[i]
		}
	}
}

var gradientTasks par.Spare[gradientTask]

// SyntheticSceneInto paints the procedural scene into dst, overwriting
// every pixel. The pixel content for a given (dimensions, seed) pair is
// identical to SyntheticScene's. Returns dst.
func SyntheticSceneInto(dst *ARGBImage, seed uint64) *ARGBImage {
	rng := sim.NewRNG(seed)
	img := dst
	width, height := img.Width, img.Height
	// Gradient background. The channel values depend only on the column
	// (r), row (g) and diagonal (b), so the integer divisions are hoisted
	// into per-axis tables (recycled across frames) and each pixel is an
	// OR of prepacked parts, painted row-tiled.
	grad := gradientTasks.Get()
	grad.img = img
	grad.rCol = growUint32(grad.rCol, width)
	grad.bDiag = growUint32(grad.bDiag, width+height)
	rCol, bDiag := grad.rCol, grad.bDiag
	for i := 0; i < width; i++ {
		rCol[i] = uint32(uint8(255*i/width)) << 16
	}
	for s := 0; s < width+height; s++ {
		bDiag[s] = uint32(uint8(s * 255 / (width + height)))
	}
	par.For(height, grad)
	grad.img = nil
	gradientTasks.Put(grad)
	// Rectangles simulating objects.
	for k := 0; k < 4; k++ {
		x0 := rng.Intn(width * 3 / 4)
		y0 := rng.Intn(height * 3 / 4)
		w := 1 + rng.Intn(width/4)
		h := 1 + rng.Intn(height/4)
		col := PackRGB(uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)))
		x1 := min(x0+w, width)
		for j := y0; j < y0+h && j < height; j++ {
			row := img.Pix[j*width+x0 : j*width+x1]
			for i := range row {
				row[i] = col
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
// i.e. what the camera HAL would hand the application.
func SyntheticFrame(width, height int, seed uint64) *YUVImage {
	return SyntheticFrameInto(NewYUV(width&^1, height&^1), seed)
}

// SyntheticFrameInto paints the procedural scene straight into the NV21
// frame dst (at dst's dimensions), going through a pooled ARGB scratch
// bitmap so a per-frame synthesis allocates nothing in steady state.
// Content is identical to SyntheticFrame's for the same dimensions and
// seed. Returns dst.
func SyntheticFrameInto(dst *YUVImage, seed uint64) *YUVImage {
	scene := GetARGB(dst.Width, dst.Height)
	SyntheticSceneInto(scene, seed)
	ARGBToYUVInto(dst, scene)
	PutARGB(scene)
	return dst
}
