package capture

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"aitax/internal/imaging"
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
	if f.Image.Width != DefaultPreviewW || f.Image.Height != DefaultPreviewH {
		t.Fatalf("frame dims = %dx%d", f.Image.Width, f.Image.Height)
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

func TestConvertFrame(t *testing.T) {
	eng, cam := newCam()
	cam.Capture(func(f *Frame) {
		img := ConvertFrameInto(new(imaging.ARGBImage), f)
		if img.Width != cam.Width || img.Height != cam.Height {
			t.Errorf("converted dims = %dx%d", img.Width, img.Height)
		}
	})
	eng.Run()
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

func TestSynthesizeMode(t *testing.T) {
	eng, cam := newCam()
	cam.Synthesize = true
	var a, b *Frame
	cam.Capture(func(f *Frame) { a = f })
	cam.Capture(func(f *Frame) { b = f })
	eng.Run()
	diff := false
	for i := range a.Image.Y {
		if a.Image.Y[i] != b.Image.Y[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("synthesized frames must differ")
	}
}

func TestPoolModeCyclesDistinctFrames(t *testing.T) {
	eng, cam := newCam()
	imgs := map[*Frame]bool{}
	for i := 0; i < 8; i++ {
		cam.Capture(func(f *Frame) { imgs[f] = true })
	}
	eng.Run()
	if len(imgs) != 8 {
		t.Fatalf("frames = %d", len(imgs))
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

func TestPreviewPoolMatchesSyntheticFrames(t *testing.T) {
	_, cam := newCam()
	if len(cam.pool) != previewPoolSize || cap(cam.pool) != previewPoolSize {
		t.Fatalf("pool len %d cap %d, want %d", len(cam.pool), cap(cam.pool), previewPoolSize)
	}
	for i, img := range cam.pool {
		want := imaging.SyntheticFrame(cam.Width, cam.Height, uint64(1000+i))
		if img.Width != want.Width || img.Height != want.Height ||
			!bytes.Equal(img.Y, want.Y) || !bytes.Equal(img.VU, want.VU) {
			t.Fatalf("pool frame %d differs from SyntheticFrame(%d, %d, %d)", i, cam.Width, cam.Height, 1000+i)
		}
	}
}

func TestPreviewPoolSharedPerResolution(t *testing.T) {
	eng := sim.NewEngine()
	a := NewCamera(eng, sim.NewRNG(1), 320, 240)
	b := NewCamera(eng, sim.NewRNG(2), 321, 241) // floors to 320x240
	c := NewCamera(eng, sim.NewRNG(3), 640, 480)
	for i := range a.pool {
		if a.pool[i] != b.pool[i] {
			t.Fatalf("same-size cameras do not share pool frame %d", i)
		}
		for j := range c.pool {
			if a.pool[i] == c.pool[j] {
				t.Fatalf("320x240 frame %d aliases 640x480 frame %d", i, j)
			}
		}
	}
	// An append through one camera's slice must copy, never write into
	// the shared backing array.
	if grown := append(a.pool, c.pool[0]); &grown[0] == &b.pool[0] {
		t.Fatal("append wrote into the shared pool")
	}
}

// Lab experiments build cameras in parallel; -race checks the pool.
func TestNewCameraConcurrent(t *testing.T) {
	const n = 8
	cams := make([]*Camera, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Half the goroutines race for a resolution no other test uses.
			w := DefaultPreviewW
			if i%2 == 1 {
				w = 200
			}
			cams[i] = NewCamera(sim.NewEngine(), sim.NewRNG(uint64(i)), w, 150)
		}(i)
	}
	wg.Wait()
	for i := 2; i < n; i++ {
		if cams[i].pool[0] != cams[i%2].pool[0] {
			t.Fatalf("camera %d did not share its resolution's pool", i)
		}
	}
	if cams[0].pool[0] == cams[1].pool[0] {
		t.Fatal("different resolutions share a pool")
	}
}

func TestSynthesizeNeverAliasesPool(t *testing.T) {
	eng, cam := newCam()
	cam.Synthesize = true
	pooled := map[*imaging.YUVImage]bool{}
	for _, img := range cam.pool {
		pooled[img] = true
	}
	want := make([][]byte, len(cam.pool))
	for i, img := range cam.pool {
		want[i] = bytes.Clone(img.Y)
	}
	for i := 0; i < 2*previewPoolSize; i++ {
		cam.Capture(func(f *Frame) {
			if pooled[f.Image] {
				t.Errorf("synthesized frame %d is a shared pool frame", f.Seq)
			}
		})
	}
	eng.Run()
	for i, img := range cam.pool {
		if !bytes.Equal(img.Y, want[i]) {
			t.Fatalf("synthesis wrote into pool frame %d", i)
		}
	}
}

// BenchmarkNewCamera measures opening a default-resolution camera once
// its preview pool exists, the cost every app.New pays.
func BenchmarkNewCamera(b *testing.B) {
	eng, rng := sim.NewEngine(), sim.NewRNG(1)
	NewCamera(eng, rng, DefaultPreviewW, DefaultPreviewH)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewCamera(eng, rng, DefaultPreviewW, DefaultPreviewH)
	}
}
