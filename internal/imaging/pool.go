package imaging

import "sync"

// Buffer pooling for the per-frame image buffers on the capture→preproc
// hot path. The contract (documented in docs/PERF.md): Get* returns an
// image with the requested dimensions and UNDEFINED pixel contents — the
// caller must fully overwrite it (every kernel in this package and in
// preproc does); Put* hands the buffer back, after which the caller must
// not touch it. Returning a buffer is always optional: an un-Put image
// is simply garbage-collected.

var argbPool = sync.Pool{New: func() any { return new(ARGBImage) }}

// GetARGB returns a pooled ARGB bitmap of the given dimensions.
// Contents are undefined; the caller must overwrite every pixel.
func GetARGB(width, height int) *ARGBImage {
	img := argbPool.Get().(*ARGBImage)
	img.Resize(width, height)
	return img
}

// PutARGB returns a bitmap to the pool. nil is ignored.
func PutARGB(img *ARGBImage) {
	if img != nil {
		argbPool.Put(img)
	}
}

// Resize re-dimensions the frame in place, reusing the backing arrays
// when they are large enough. Contents are undefined afterwards.
func (img *YUVImage) Resize(width, height int) {
	checkYUVDims(width, height)
	img.Width, img.Height = width, height
	img.Y = growBytes(img.Y, width*height)
	img.VU = growBytes(img.VU, width*height/2)
}

// Resize re-dimensions the bitmap in place, reusing the backing array
// when it is large enough. Contents are undefined afterwards.
func (img *ARGBImage) Resize(width, height int) {
	checkARGBDims(width, height)
	img.Width, img.Height = width, height
	if n := width * height; cap(img.Pix) >= n {
		img.Pix = img.Pix[:n]
	} else {
		img.Pix = make([]uint32, n)
	}
}

func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	return make([]byte, n)
}

func growUint32(s []uint32, n int) []uint32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]uint32, n)
}
