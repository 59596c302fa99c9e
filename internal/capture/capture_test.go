package capture

import (
	"testing"
	"time"

	"aitax/internal/sim"
)

func newCam() (*sim.Engine, *Camera) {
	eng := sim.NewEngine()
	return eng, NewCamera(eng, sim.NewRNG(7), DefaultPreviewW, DefaultPreviewH)
}

func TestCaptureDeliversFrame(t *testing.T) {
	eng, cam := newCam()
	var f *Frame
	cam.Capture(func(fr *Frame) { f = fr })
	eng.Run()
	if f == nil {
		t.Fatal("no frame delivered")
	}
	if f.SensorLatency <= 0 {
		t.Fatal("sensor latency missing")
	}
}

func TestSensorLatencyPlausible(t *testing.T) {
	eng, cam := newCam()
	var lats []time.Duration
	for i := 0; i < 100; i++ {
		cam.Capture(func(f *Frame) { lats = append(lats, f.SensorLatency) })
	}
	eng.Run()
	for _, l := range lats {
		if l < 2*time.Millisecond || l > 15*time.Millisecond {
			t.Fatalf("sensor latency %v outside sane range", l)
		}
	}
	// Jitter: not all identical.
	same := true
	for _, l := range lats {
		if l != lats[0] {
			same = false
		}
	}
	if same {
		t.Fatal("no jitter on sensor latency")
	}
}

func TestSequenceNumbers(t *testing.T) {
	eng, cam := newCam()
	var seqs []int
	for i := 0; i < 5; i++ {
		cam.Capture(func(f *Frame) { seqs = append(seqs, f.Seq) })
	}
	eng.Run()
	if len(seqs) != 5 {
		t.Fatalf("frames = %d", len(seqs))
	}
	seen := map[int]bool{}
	for _, s := range seqs {
		if seen[s] {
			t.Fatal("duplicate sequence number")
		}
		seen[s] = true
	}
}

func TestConversionWorkScalesWithResolution(t *testing.T) {
	eng := sim.NewEngine()
	small := NewCamera(eng, sim.NewRNG(1), 320, 240)
	large := NewCamera(eng, sim.NewRNG(1), 1280, 720)
	if large.ConversionWork().Ops <= small.ConversionWork().Ops {
		t.Fatal("conversion work must scale with pixels")
	}
	if small.ConversionWork().Vectorizable {
		t.Fatal("managed conversion is not vectorizable")
	}
}

func TestFrameBytes(t *testing.T) {
	_, cam := newCam()
	if cam.FrameBytes() != DefaultPreviewW*DefaultPreviewH*3/2 {
		t.Fatalf("frame bytes = %d", cam.FrameBytes())
	}
}

func TestOddResolutionFloored(t *testing.T) {
	eng := sim.NewEngine()
	cam := NewCamera(eng, sim.NewRNG(1), 641, 481)
	if cam.Width != 640 || cam.Height != 480 {
		t.Fatalf("dims = %dx%d", cam.Width, cam.Height)
	}
}

func TestIMUReadOrientation(t *testing.T) {
	eng := sim.NewEngine()
	imu := NewIMU(eng, sim.NewRNG(3))
	var turns []int
	for i := 0; i < 200; i++ {
		imu.ReadOrientation(func(q int) { turns = append(turns, q) })
	}
	eng.Run()
	if len(turns) != 200 || imu.Reads() != 200 {
		t.Fatalf("reads = %d/%d", len(turns), imu.Reads())
	}
	for _, q := range turns {
		if q < 0 || q > 3 {
			t.Fatalf("orientation %d out of range", q)
		}
	}
	// With ~2% rotation probability over 200 reads, the orientation must
	// have changed at least once.
	changed := false
	for i := 1; i < len(turns); i++ {
		if turns[i] != turns[i-1] {
			changed = true
		}
	}
	if !changed {
		t.Fatal("orientation never changed over 200 reads")
	}
}

func TestIMUReadLatencyPositive(t *testing.T) {
	eng := sim.NewEngine()
	imu := NewIMU(eng, sim.NewRNG(5))
	imu.ReadOrientation(nil)
	if end := eng.Run(); end.Duration() <= 0 || end.Duration() > 2*time.Millisecond {
		t.Fatalf("imu read latency = %v", end.Duration())
	}
}

// BenchmarkNewCamera measures opening a default-resolution camera, the
// cost every app.New pays.
func BenchmarkNewCamera(b *testing.B) {
	eng, rng := sim.NewEngine(), sim.NewRNG(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCamera(eng, rng, DefaultPreviewW, DefaultPreviewH)
	}
}
