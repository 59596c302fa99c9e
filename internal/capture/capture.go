// Package capture models the Android camera data-acquisition path the
// paper identifies as a major share of application latency (§II-A): a
// sensor with exposure/readout/ISP latency delivering YUV_NV21 preview
// frames, plus the CPU-side buffer handling the app performs to obtain a
// usable frame. Sensor-side latency is constant-ish with jitter; the
// CPU-side conversion runs on the scheduler, so background CPU load
// stretches it — exactly the Fig. 10 behaviour.
package capture

import (
	"sync"
	"time"

	"aitax/internal/imaging"
	"aitax/internal/sim"
	"aitax/internal/work"
)

// Frame is one delivered camera frame.
type Frame struct {
	// Image is read-only: without Synthesize it is a preview frame
	// shared by every camera of the same resolution.
	Image       *imaging.YUVImage
	Seq         int
	DeliveredAt sim.Time
	// SensorLatency is the non-CPU share of acquisition (exposure,
	// readout, ISP, HAL delivery).
	SensorLatency time.Duration
}

// Camera is a preview-stream camera session.
type Camera struct {
	eng *sim.Engine
	rng *sim.RNG

	// Width and Height are the preview resolution (the demo apps request
	// a small preview, not full sensor resolution).
	Width, Height int
	// Exposure+Readout is the sensor-side base latency per frame.
	Exposure time.Duration
	Readout  time.Duration
	// JitterCV is the coefficient of variation on sensor latency —
	// "delays in the interrupt handling from sensor input streams"
	// (§IV-C) feeding the Fig. 11 variability.
	JitterCV float64

	// Synthesize controls whether each frame gets fresh procedural
	// content (true) or cycles a small pregenerated pool (false, the
	// fast default for long experiments).
	Synthesize bool

	pool    []*imaging.YUVImage // shared and read-only: see previewFrames
	scratch []*imaging.YUVImage // ring reused by the Synthesize path
	seq     int
}

// DefaultPreviewW and DefaultPreviewH are the demo apps' preview size.
const (
	DefaultPreviewW = 480
	DefaultPreviewH = 360
)

// NewCamera opens a camera session at the given preview resolution.
func NewCamera(eng *sim.Engine, rng *sim.RNG, width, height int) *Camera {
	c := &Camera{
		eng: eng, rng: rng,
		Width: width &^ 1, Height: height &^ 1,
		Exposure: 4 * time.Millisecond,
		Readout:  3 * time.Millisecond,
		JitterCV: 0.18,
	}
	c.pool = previewFrames(c.Width, c.Height)
	return c
}

// previewPoolSize is the number of distinct pregenerated preview frames.
const previewPoolSize = 4

// previewPool holds the pregenerated frames of one preview resolution.
type previewPool struct {
	once   sync.Once
	frames []*imaging.YUVImage
}

// previewPools maps a [width, height] pair to its *previewPool.
var previewPools sync.Map

// previewFrames returns the pregenerated preview frames for a width x
// height camera, painting them on first use. The frames are a pure
// function of the resolution, so every camera of that size in the
// process shares one set and long runs spend no host time on
// procedural content.
//
// The frames are read-only: delivered images are only ever read (by
// ConvertFrameInto), and the slice is capped so an
// append cannot write into the shared backing array.
func previewFrames(width, height int) []*imaging.YUVImage {
	key := [2]int{width, height}
	v, ok := previewPools.Load(key)
	if !ok {
		v, _ = previewPools.LoadOrStore(key, new(previewPool))
	}
	p := v.(*previewPool)
	p.once.Do(func() {
		frames := make([]*imaging.YUVImage, previewPoolSize)
		for i := range frames {
			frames[i] = imaging.SyntheticFrame(width, height, uint64(1000+i))
		}
		p.frames = frames
	})
	return p.frames[:previewPoolSize:previewPoolSize]
}

// FrameBytes returns the NV21 frame size.
func (c *Camera) FrameBytes() int { return c.Width * c.Height * 3 / 2 }

// ConversionWork is the CPU-side cost of turning the delivered NV21
// buffer into an ARGB bitmap ("bitmap formatting", §II-B) — per-pixel
// integer math that Android apps perform in managed code.
func (c *Camera) ConversionWork() work.Work {
	px := int64(c.Width) * int64(c.Height)
	return work.Work{Ops: px * 12, Bytes: px * (3/2 + 4), Vectorizable: false}
}

// Capture delivers the next frame after the sensor-side latency. The
// CPU-side conversion is the caller's job (it belongs to the app's
// threads); ConvertFrameInto performs it for real.
func (c *Camera) Capture(done func(*Frame)) {
	base := c.Exposure + c.Readout
	lat := c.rng.Jitter(base, c.JitterCV)
	seq := c.seq
	c.seq++
	c.eng.After(lat, func() {
		var img *imaging.YUVImage
		if c.Synthesize {
			// Paint into a camera-owned scratch ring: like the pooled
			// path, a delivered image is recycled after len(pool) more
			// captures, which is the lifetime a preview buffer has anyway.
			if c.scratch == nil {
				c.scratch = make([]*imaging.YUVImage, len(c.pool))
				for i := range c.scratch {
					c.scratch[i] = imaging.NewYUV(c.Width, c.Height)
				}
			}
			img = imaging.SyntheticFrameInto(c.scratch[seq%len(c.scratch)], uint64(5000+seq))
		} else {
			img = c.pool[seq%len(c.pool)]
		}
		done(&Frame{Image: img, Seq: seq, DeliveredAt: c.eng.Now(), SensorLatency: lat})
	})
}

// ConvertFrameInto performs the real NV21→ARGB conversion of a frame:
// the bitmap is decoded into dst, which steady-state callers recycle every
// frame so the conversion allocates nothing. Returns dst.
func ConvertFrameInto(dst *imaging.ARGBImage, f *Frame) *imaging.ARGBImage {
	return imaging.YUVToARGBInto(dst, f.Image)
}
