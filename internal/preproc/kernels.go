package preproc

// This file holds the hot-path machinery behind the public kernels in
// preproc.go: the bilinear coefficient cache, the byte-indexed
// normalization/quantization tables, and the fused resize+convert
// kernels. Everything here is bit-exact with the scalar definitions in
// preproc.go — the coefficient tables are built with the very same
// float64 expressions the scalar loops used, so replaying them yields
// identical bytes (pinned by TestFusedKernelsMatchUnfused and the
// cross-worker-count determinism test at the repo root).

import (
	"sync"

	"aitax/internal/imaging"
	"aitax/internal/par"
	"aitax/internal/tensor"
)

// ---------------------------------------------------------------------------
// Bilinear coefficient cache.
//
// A resize is fully described by (srcW, srcH, dstW, dstH): the sample
// positions x0/x1/y0/y1 and the lerp weights fx/fy depend on nothing
// else. The app resizes every frame with the same geometry, so in the
// spirit of internal/plan the coefficients are computed once per
// geometry and cached forever (the set of distinct geometries in a run
// is tiny — one per model × capture resolution).

type resizeKey struct{ srcW, srcH, dstW, dstH int }

type resizePlan struct {
	x0, x1  []int32   // per output column: left/right source columns
	fx, ofx []float64 // per output column: weight and 1-weight
	y0, y1  []int32   // per output row: top/bottom source rows
	fy, ofy []float64 // per output row: weight and 1-weight
}

// A plain RWMutex + typed map rather than sync.Map: Load with a struct
// key boxes the key into an interface and allocates on every lookup,
// which would put an allocation back on the per-frame path.
var (
	resizeMu    sync.RWMutex
	resizePlans = map[resizeKey]*resizePlan{}
)

func planFor(srcW, srcH, dstW, dstH int) *resizePlan {
	key := resizeKey{srcW, srcH, dstW, dstH}
	resizeMu.RLock()
	p := resizePlans[key]
	resizeMu.RUnlock()
	if p != nil {
		return p
	}
	p = buildResizePlan(key)
	resizeMu.Lock()
	if q, ok := resizePlans[key]; ok {
		p = q // lost the build race; keep the published plan
	} else {
		resizePlans[key] = p
	}
	resizeMu.Unlock()
	return p
}

func buildResizePlan(k resizeKey) *resizePlan {
	p := &resizePlan{
		x0: make([]int32, k.dstW), x1: make([]int32, k.dstW),
		fx: make([]float64, k.dstW), ofx: make([]float64, k.dstW),
		y0: make([]int32, k.dstH), y1: make([]int32, k.dstH),
		fy: make([]float64, k.dstH), ofy: make([]float64, k.dstH),
	}
	xRatio := float64(k.srcW-1) / float64(max(k.dstW-1, 1))
	yRatio := float64(k.srcH-1) / float64(max(k.dstH-1, 1))
	for i := 0; i < k.dstW; i++ {
		sx := xRatio * float64(i)
		x0 := int(sx)
		p.x0[i] = int32(x0)
		p.x1[i] = int32(min(x0+1, k.srcW-1))
		p.fx[i] = sx - float64(x0)
		p.ofx[i] = 1 - p.fx[i]
	}
	for j := 0; j < k.dstH; j++ {
		sy := yRatio * float64(j)
		y0 := int(sy)
		p.y0[j] = int32(y0)
		p.y1[j] = int32(min(y0+1, k.srcH-1))
		p.fy[j] = sy - float64(y0)
		p.ofy[j] = 1 - p.fy[j]
	}
	return p
}

// lerpChan is one channel of the bilinear kernel, written with the same
// float64 expression shape as the original closure so the rounding is
// identical (ofx/ofy are the cached 1-fx/1-fy).
func lerpChan(a, b, c, d uint8, fx, ofx, fy, ofy float64) uint8 {
	top := float64(a)*ofx + float64(b)*fx
	bot := float64(c)*ofx + float64(d)*fx
	return uint8(top*ofy + bot*fy + 0.5)
}

type resizeTask struct {
	plan     *resizePlan
	src, dst *imaging.ARGBImage
}

var resizeTaskPool par.Spare[resizeTask]

func (t *resizeTask) Tile(lo, hi int) {
	p, src := t.plan, t.src
	dstW := t.dst.Width
	for j := lo; j < hi; j++ {
		row0 := src.Pix[int(p.y0[j])*src.Width:][:src.Width]
		row1 := src.Pix[int(p.y1[j])*src.Width:][:src.Width]
		fy, ofy := p.fy[j], p.ofy[j]
		out := t.dst.Pix[j*dstW:][:dstW]
		for i := range out {
			x0, x1 := p.x0[i], p.x1[i]
			fx, ofx := p.fx[i], p.ofx[i]
			r00, g00, b00 := imaging.RGB(row0[x0])
			r10, g10, b10 := imaging.RGB(row0[x1])
			r01, g01, b01 := imaging.RGB(row1[x0])
			r11, g11, b11 := imaging.RGB(row1[x1])
			out[i] = imaging.PackRGB(
				lerpChan(r00, r10, r01, r11, fx, ofx, fy, ofy),
				lerpChan(g00, g10, g01, g11, fx, ofx, fy, ofy),
				lerpChan(b00, b10, b01, b11, fx, ofx, fy, ofy),
			)
		}
	}
}

// ---------------------------------------------------------------------------
// Byte-indexed conversion tables.
//
// Both normalization and input quantization map each of the 256
// possible channel bytes through a fixed scalar function, so the whole
// conversion collapses to a table lookup. Tables are cached per
// parameter set, again behind RWMutex + typed map to keep lookups
// allocation-free.

type normKey struct{ mean, std float64 }

var (
	normMu   sync.RWMutex
	normTabs = map[normKey]*[256]float32{}
)

func normTabFor(mean, std float64) *[256]float32 {
	key := normKey{mean, std}
	normMu.RLock()
	tab := normTabs[key]
	normMu.RUnlock()
	if tab != nil {
		return tab
	}
	tab = new([256]float32)
	for i := range tab {
		tab[i] = float32((float64(i) - mean) / std)
	}
	normMu.Lock()
	if t, ok := normTabs[key]; ok {
		tab = t
	} else {
		normTabs[key] = tab
	}
	normMu.Unlock()
	return tab
}

type quantKey struct {
	dt    tensor.DType
	scale float64
	zp    int
}

var (
	quantMu   sync.RWMutex
	quantTabs = map[quantKey]*[256]byte{}
)

// quantTabFor builds the byte→quantized-byte table for int8/uint8
// targets. Entries are the raw bit patterns (int8 values stored as
// their byte representation), produced by the same QuantParams.Quantize
// call the scalar path used.
func quantTabFor(dt tensor.DType, q tensor.QuantParams) *[256]byte {
	key := quantKey{dt, q.Scale, q.ZeroPoint}
	quantMu.RLock()
	tab := quantTabs[key]
	quantMu.RUnlock()
	if tab != nil {
		return tab
	}
	tab = new([256]byte)
	for i := range tab {
		tab[i] = byte(q.Quantize(float64(i), dt))
	}
	quantMu.Lock()
	if t, ok := quantTabs[key]; ok {
		tab = t
	} else {
		quantTabs[key] = tab
	}
	quantMu.Unlock()
	return tab
}

type normalizeTask struct {
	src *imaging.ARGBImage
	tab *[256]float32
	out []float32
}

var normalizeTaskPool par.Spare[normalizeTask]

func (t *normalizeTask) Tile(lo, hi int) {
	w := t.src.Width
	tab := t.tab
	for j := lo; j < hi; j++ {
		row := t.src.Pix[j*w:][:w]
		out := t.out[j*w*3:][:w*3]
		// Four pixels per iteration into a capped 12-element window, so
		// the twelve float32 stores share one bounds check. (The output
		// is float32, so unlike the quantize kernel there is no packed
		// uint64 store to aim for.)
		i, idx := 0, 0
		for ; i+4 <= w; i, idx = i+4, idx+12 {
			o := out[idx : idx+12 : idx+12]
			p0, p1, p2, p3 := row[i], row[i+1], row[i+2], row[i+3]
			o[0], o[1], o[2] = tab[uint8(p0>>16)], tab[uint8(p0>>8)], tab[uint8(p0)]
			o[3], o[4], o[5] = tab[uint8(p1>>16)], tab[uint8(p1>>8)], tab[uint8(p1)]
			o[6], o[7], o[8] = tab[uint8(p2>>16)], tab[uint8(p2>>8)], tab[uint8(p2)]
			o[9], o[10], o[11] = tab[uint8(p3>>16)], tab[uint8(p3>>8)], tab[uint8(p3)]
		}
		for ; i < w; i, idx = i+1, idx+3 {
			r, g, b := imaging.RGB(row[i])
			out[idx] = tab[r]
			out[idx+1] = tab[g]
			out[idx+2] = tab[b]
		}
	}
}

type quantizeTask struct {
	src *imaging.ARGBImage
	tab *[256]byte
	u8  []uint8
	i8  []int8
}

var quantizeTaskPool par.Spare[quantizeTask]

func (t *quantizeTask) Tile(lo, hi int) {
	w := t.src.Width
	tab := t.tab
	for j := lo; j < hi; j++ {
		row := t.src.Pix[j*w:][:w]
		if t.u8 != nil {
			// Four pixels per iteration, twelve independent byte stores
			// per bounds check. Packing the 24 output bytes into three
			// uint64 stores was measured and rejected: the narrow stores
			// are absorbed by the store buffer, while building each
			// packed word serializes on its shift/OR tree (see
			// docs/PERF.md).
			out := t.u8[j*w*3:][:w*3]
			i, idx := 0, 0
			for ; i+4 <= w; i, idx = i+4, idx+12 {
				o := out[idx : idx+12 : idx+12]
				p0, p1, p2, p3 := row[i], row[i+1], row[i+2], row[i+3]
				o[0], o[1], o[2] = tab[uint8(p0>>16)], tab[uint8(p0>>8)], tab[uint8(p0)]
				o[3], o[4], o[5] = tab[uint8(p1>>16)], tab[uint8(p1>>8)], tab[uint8(p1)]
				o[6], o[7], o[8] = tab[uint8(p2>>16)], tab[uint8(p2>>8)], tab[uint8(p2)]
				o[9], o[10], o[11] = tab[uint8(p3>>16)], tab[uint8(p3>>8)], tab[uint8(p3)]
			}
			for ; i < w; i, idx = i+1, idx+3 {
				r, g, b := imaging.RGB(row[i])
				out[idx] = tab[r]
				out[idx+1] = tab[g]
				out[idx+2] = tab[b]
			}
		} else {
			out := t.i8[j*w*3:][:w*3]
			i, idx := 0, 0
			for ; i+4 <= w; i, idx = i+4, idx+12 {
				o := out[idx : idx+12 : idx+12]
				p0, p1, p2, p3 := row[i], row[i+1], row[i+2], row[i+3]
				o[0], o[1], o[2] = int8(tab[uint8(p0>>16)]), int8(tab[uint8(p0>>8)]), int8(tab[uint8(p0)])
				o[3], o[4], o[5] = int8(tab[uint8(p1>>16)]), int8(tab[uint8(p1>>8)]), int8(tab[uint8(p1)])
				o[6], o[7], o[8] = int8(tab[uint8(p2>>16)]), int8(tab[uint8(p2>>8)]), int8(tab[uint8(p2)])
				o[9], o[10], o[11] = int8(tab[uint8(p3>>16)]), int8(tab[uint8(p3>>8)]), int8(tab[uint8(p3)])
			}
			for ; i < w; i, idx = i+1, idx+3 {
				r, g, b := imaging.RGB(row[i])
				out[idx] = int8(tab[r])
				out[idx+1] = int8(tab[g])
				out[idx+2] = int8(tab[b])
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Fused resize + convert kernels.
//
// Resize-then-normalize (or -quantize) walks the 224×224 intermediate
// twice and materializes it in between. The fused kernels interpolate a
// pixel and immediately push its channels through the conversion table,
// eliminating the intermediate image and one full pass over it. Because
// the lerp produces the same uint8 the two-step path would have stored,
// the outputs are bit-identical.

type fusedNormTask struct {
	plan *resizePlan
	src  *imaging.ARGBImage
	tab  *[256]float32
	out  []float32
	dstW int
}

var fusedNormTaskPool par.Spare[fusedNormTask]

func (t *fusedNormTask) Tile(lo, hi int) {
	p, src, tab, dstW := t.plan, t.src, t.tab, t.dstW
	for j := lo; j < hi; j++ {
		row0 := src.Pix[int(p.y0[j])*src.Width:][:src.Width]
		row1 := src.Pix[int(p.y1[j])*src.Width:][:src.Width]
		fy, ofy := p.fy[j], p.ofy[j]
		out := t.out[j*dstW*3:][:dstW*3]
		idx := 0
		for i := 0; i < dstW; i++ {
			x0, x1 := p.x0[i], p.x1[i]
			fx, ofx := p.fx[i], p.ofx[i]
			r00, g00, b00 := imaging.RGB(row0[x0])
			r10, g10, b10 := imaging.RGB(row0[x1])
			r01, g01, b01 := imaging.RGB(row1[x0])
			r11, g11, b11 := imaging.RGB(row1[x1])
			out[idx] = tab[lerpChan(r00, r10, r01, r11, fx, ofx, fy, ofy)]
			out[idx+1] = tab[lerpChan(g00, g10, g01, g11, fx, ofx, fy, ofy)]
			out[idx+2] = tab[lerpChan(b00, b10, b01, b11, fx, ofx, fy, ofy)]
			idx += 3
		}
	}
}

type fusedQuantTask struct {
	plan *resizePlan
	src  *imaging.ARGBImage
	tab  *[256]byte
	u8   []uint8
	i8   []int8
	dstW int
}

var fusedQuantTaskPool par.Spare[fusedQuantTask]

func (t *fusedQuantTask) Tile(lo, hi int) {
	p, src, tab, dstW := t.plan, t.src, t.tab, t.dstW
	for j := lo; j < hi; j++ {
		row0 := src.Pix[int(p.y0[j])*src.Width:][:src.Width]
		row1 := src.Pix[int(p.y1[j])*src.Width:][:src.Width]
		fy, ofy := p.fy[j], p.ofy[j]
		idx := 0
		if t.u8 != nil {
			out := t.u8[j*dstW*3:][:dstW*3]
			for i := 0; i < dstW; i++ {
				x0, x1 := p.x0[i], p.x1[i]
				fx, ofx := p.fx[i], p.ofx[i]
				r00, g00, b00 := imaging.RGB(row0[x0])
				r10, g10, b10 := imaging.RGB(row0[x1])
				r01, g01, b01 := imaging.RGB(row1[x0])
				r11, g11, b11 := imaging.RGB(row1[x1])
				out[idx] = tab[lerpChan(r00, r10, r01, r11, fx, ofx, fy, ofy)]
				out[idx+1] = tab[lerpChan(g00, g10, g01, g11, fx, ofx, fy, ofy)]
				out[idx+2] = tab[lerpChan(b00, b10, b01, b11, fx, ofx, fy, ofy)]
				idx += 3
			}
		} else {
			out := t.i8[j*dstW*3:][:dstW*3]
			for i := 0; i < dstW; i++ {
				x0, x1 := p.x0[i], p.x1[i]
				fx, ofx := p.fx[i], p.ofx[i]
				r00, g00, b00 := imaging.RGB(row0[x0])
				r10, g10, b10 := imaging.RGB(row0[x1])
				r01, g01, b01 := imaging.RGB(row1[x0])
				r11, g11, b11 := imaging.RGB(row1[x1])
				out[idx] = int8(tab[lerpChan(r00, r10, r01, r11, fx, ofx, fy, ofy)])
				out[idx+1] = int8(tab[lerpChan(g00, g10, g01, g11, fx, ofx, fy, ofy)])
				out[idx+2] = int8(tab[lerpChan(b00, b10, b01, b11, fx, ofx, fy, ofy)])
				idx += 3
			}
		}
	}
}

// ResizeNormalizeInto scales src to dstW×dstH and normalizes the result
// to an NHWC FP32 tensor in a single pass (no intermediate image),
// bit-identical to ResizeBilinear followed by Normalize. dst (which may
// be nil) is recycled through tensor.Ensure, so a steady-state caller
// allocates nothing. Returns the tensor.
func ResizeNormalizeInto(dst *tensor.Tensor, src *imaging.ARGBImage, dstW, dstH int, mean, std float64) *tensor.Tensor {
	if dstW <= 0 || dstH <= 0 {
		panic("preproc: invalid resize target")
	}
	if std == 0 {
		panic("preproc: zero normalization std")
	}
	t := tensor.Ensure(dst, tensor.Float32, tensor.Shape{1, dstH, dstW, 3})
	task := fusedNormTaskPool.Get()
	*task = fusedNormTask{
		plan: planFor(src.Width, src.Height, dstW, dstH),
		src:  src, tab: normTabFor(mean, std), out: t.F32, dstW: dstW,
	}
	par.For(dstH, task)
	*task = fusedNormTask{}
	fusedNormTaskPool.Put(task)
	return t
}

// ResizeQuantizeInto scales src to dstW×dstH and quantizes the result to
// an NHWC tensor in a single pass (no intermediate image), bit-identical
// to ResizeBilinear followed by QuantizeInput. dst (which may be nil) is
// recycled through tensor.Ensure. Returns the tensor.
func ResizeQuantizeInto(dst *tensor.Tensor, src *imaging.ARGBImage, dstW, dstH int, dt tensor.DType, q tensor.QuantParams) *tensor.Tensor {
	if dstW <= 0 || dstH <= 0 {
		panic("preproc: invalid resize target")
	}
	if dt != tensor.UInt8 && dt != tensor.Int8 {
		// Non-byte targets have no conversion table; fall back to the
		// two-step path through a pooled intermediate.
		tmp := imaging.GetARGB(dstW, dstH)
		ResizeBilinearInto(tmp, src, dstW, dstH)
		t := QuantizeInputInto(dst, tmp, dt, q)
		imaging.PutARGB(tmp)
		return t
	}
	t := tensor.Ensure(dst, dt, tensor.Shape{1, dstH, dstW, 3})
	t.Quant = q
	task := fusedQuantTaskPool.Get()
	*task = fusedQuantTask{
		plan: planFor(src.Width, src.Height, dstW, dstH),
		src:  src, tab: quantTabFor(dt, q), dstW: dstW,
	}
	// Select the output slice by dtype: a reused tensor can carry a stale
	// slice of the other width from an earlier Ensure.
	if dt == tensor.UInt8 {
		task.u8 = t.U8
	} else {
		task.i8 = t.I8
	}
	par.For(dstH, task)
	*task = fusedQuantTask{}
	fusedQuantTaskPool.Put(task)
	return t
}
