// Package capture models the Android camera data-acquisition path the
// paper identifies as a major share of application latency (§II-A): a
// sensor with exposure/readout/ISP latency delivering YUV_NV21 preview
// frames, plus the CPU-side buffer handling the app performs to obtain a
// usable frame. Sensor-side latency is constant-ish with jitter; the
// CPU-side conversion runs on the scheduler, so background CPU load
// stretches it — exactly the Fig. 10 behaviour.
package capture

import (
	"time"

	"aitax/internal/sim"
	"aitax/internal/work"
)

// Frame is one delivered camera frame: its timing only, since the
// CPU-side conversion is costed in virtual time, never run on pixels.
type Frame struct {
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

	seq int
}

// DefaultPreviewW and DefaultPreviewH are the demo apps' preview size.
const (
	DefaultPreviewW = 480
	DefaultPreviewH = 360
)

// NewCamera opens a camera session at the given preview resolution.
func NewCamera(eng *sim.Engine, rng *sim.RNG, width, height int) *Camera {
	return &Camera{
		eng: eng, rng: rng,
		Width: width &^ 1, Height: height &^ 1,
		Exposure: 4 * time.Millisecond,
		Readout:  3 * time.Millisecond,
		JitterCV: 0.18,
	}
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
// threads).
func (c *Camera) Capture(done func(*Frame)) {
	base := c.Exposure + c.Readout
	lat := c.rng.Jitter(base, c.JitterCV)
	seq := c.seq
	c.seq++
	c.eng.After(lat, func() {
		done(&Frame{Seq: seq, DeliveredAt: c.eng.Now(), SensorLatency: lat})
	})
}
