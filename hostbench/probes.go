package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"time"

	"aitax"
	"aitax/internal/app"
	"aitax/internal/capture"
	"aitax/internal/fleet"
	"aitax/internal/models"
	"aitax/internal/obs"
	"aitax/internal/qos"
	"aitax/internal/serve"
	"aitax/internal/sim"
	"aitax/internal/soc"
	"aitax/internal/telemetry"
	"aitax/internal/tensor"
	"aitax/internal/tflite"
)

// The probes time single layers by calling their public functions
// directly, in a child process of their own. They do not depend on the
// workload, so every traced run reports them.

// medianOf returns the median of xs (xs is reordered).
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// nsPerOp runs f(n) five times and returns the median nanoseconds per
// operation.
func nsPerOp(n int, f func(n int)) float64 {
	var xs []float64
	for r := 0; r < 5; r++ {
		t := time.Now()
		f(n)
		xs = append(xs, float64(time.Since(t))/float64(n))
	}
	return medianOf(xs)
}

// drainUntil steps eng until *done is set or the queue empties, and
// returns the events fired.
func drainUntil(eng *sim.Engine, done *bool) int {
	ev := 0
	for !*done && eng.Step() {
		ev++
	}
	return ev
}

// frameTarget is one delegate the per-frame probe drives.
type frameTarget struct {
	name     string
	dtype    tensor.DType
	delegate tflite.Delegate
}

var frameTargets = []frameTarget{
	{"cpu", tensor.Float32, tflite.DelegateCPU},
	{"gpu", tensor.Float32, tflite.DelegateGPU},
	{"hexagon", tensor.UInt8, tflite.DelegateHexagon},
	{"nnapi", tensor.UInt8, tflite.DelegateNNAPI},
}

// runProbes measures every probe metric. tiny shrinks the repeat counts
// for the smoke test.
func runProbes(seed uint64, tiny bool) (map[string]float64, error) {
	reps, frames, loops := 30, 40, 1_000_000
	if tiny {
		reps, frames, loops = 3, 3, 1000
	}
	out := make(map[string]float64)
	platform := aitax.Pixel3()
	mb, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		return nil, err
	}

	// capture, app construction and init.
	var cam, newApp, initApp []float64
	for i := 0; i < reps; i++ {
		rt := tflite.NewStack(platform, seed)
		t := time.Now()
		capture.NewCamera(rt.Eng, rt.RNG, capture.DefaultPreviewW, capture.DefaultPreviewH)
		cam = append(cam, msOf(time.Since(t)))
		t = time.Now()
		a, err := app.New(rt, app.Config{Model: mb, DType: tensor.Float32, Delegate: tflite.DelegateCPU})
		newApp = append(newApp, msOf(time.Since(t)))
		if err != nil {
			return nil, err
		}
		done := false
		t = time.Now()
		a.Init(func() { done = true })
		drainUntil(rt.Eng, &done)
		initApp = append(initApp, msOf(time.Since(t)))
	}
	out["capture.new_camera_ms"] = medianOf(cam)
	out["app.new_ms"] = medianOf(newApp)
	out["app.init_ms"] = medianOf(initApp)

	// Steady-state frames per delegate, stepping the engine here so the
	// events each frame fires can be counted.
	var events, switches, migrations int
	var calls float64
	var eventNS time.Duration
	total := 0
	for _, tg := range frameTargets {
		rt := tflite.NewStack(platform, seed)
		rt.Metrics = telemetry.NewStreamingRegistry()
		a, err := app.New(rt, app.Config{Model: mb, DType: tg.dtype, Delegate: tg.delegate})
		if err != nil {
			return nil, fmt.Errorf("frame probe %s: %w", tg.name, err)
		}
		done := false
		a.Init(func() { done = true })
		drainUntil(rt.Eng, &done)
		frame := func() (int, time.Duration) {
			done := false
			t := time.Now()
			a.ProcessFrame(func(app.FrameStats) { done = true })
			ev := drainUntil(rt.Eng, &done)
			return ev, time.Since(t)
		}
		for i := 0; i < 2; i++ { // warm-up: first frames fill scratch buffers
			frame()
		}
		sw0, mig0 := rt.Sch.Switches(), rt.Sch.Migrations()
		calls0 := rt.Metrics.Counter("aitax_fastrpc_calls_total")
		var us []float64
		for i := 0; i < frames; i++ {
			ev, d := frame()
			events += ev
			eventNS += d
			us = append(us, float64(d)/float64(time.Microsecond))
		}
		switches += rt.Sch.Switches() - sw0
		migrations += rt.Sch.Migrations() - mig0
		calls += rt.Metrics.Counter("aitax_fastrpc_calls_total") - calls0
		total += frames
		out["app.frame_us."+tg.name] = medianOf(us)
	}
	out["sim.events_per_frame"] = float64(events) / float64(total)
	out["sim.ns_per_event"] = float64(eventNS) / float64(events)
	out["sched.switches_per_frame"] = float64(switches) / float64(total)
	out["sched.migrations_per_frame"] = float64(migrations) / float64(total)
	out["fastrpc.calls_per_frame"] = calls / float64(total)

	// Serving batch measurements at each batch size, after one warm call
	// per model so plan compilation stays out of the figure.
	cfg, err := serveConfig(seed)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	for _, m := range cfg.Models {
		if _, err := serve.MeasureBatch(ctx, cfg, m, 1); err != nil {
			return nil, err
		}
	}
	for k := 1; k <= cfg.MaxBatch; k++ {
		var xs []float64
		for r := 0; r < max(1, reps/10); r++ {
			for _, m := range cfg.Models {
				t := time.Now()
				if _, err := serve.MeasureBatch(ctx, cfg, m, k); err != nil {
					return nil, err
				}
				xs = append(xs, msOf(time.Since(t)))
			}
		}
		out[fmt.Sprintf("serve.measure_batch_ms.k%d", k)] = medianOf(xs)
	}

	// Hot loops of the fleet fold and the obs histogram.
	h := obs.NewHistogram(obs.DefaultBounds)
	vals := make([]float64, 4096)
	rng := sim.NewRNG(seed)
	for i := range vals {
		vals[i] = rng.Exp(20)
	}
	out["obs.hist_observe_ns"] = nsPerOp(loops, func(n int) {
		for i := 0; i < n; i++ {
			h.Observe(vals[i&4095])
		}
	})
	sampler, err := fleet.NewSampler(soc.DefaultCatalog(), seed, len(fleetModels))
	if err != nil {
		return nil, err
	}
	var sink float64
	out["fleet.sample_ns"] = nsPerOp(loops, func(n int) {
		for i := 0; i < n; i++ {
			sink += sampler.Device(i).Perf
		}
	})
	an, err := probeAnatomy(platform, seed)
	if err != nil {
		return nil, err
	}
	devs := make([]fleet.Device, 1024)
	for i := range devs {
		devs[i] = sampler.Device(i)
	}
	agg := fleet.NewTierAgg()
	out["fleet.fold_ns"] = nsPerOp(loops/4, func(n int) {
		for i := 0; i < n; i++ {
			agg.Fold(devs[i&1023], an)
		}
	})
	if sink == 0 || agg.Devices == 0 {
		return nil, fmt.Errorf("fleet probes did no work")
	}

	// One brownout decision per tick, against a varying burn signal.
	ctl, err := qos.NewController(qos.Ladder{})
	if err != nil {
		return nil, err
	}
	tick := ctl.Ladder().Tick
	step := 0
	out["qos.tick_ns"] = nsPerOp(loops, func(n int) {
		for i := 0; i < n; i++ {
			step++
			if step%7 < 3 {
				ctl.ObserveBad()
			} else {
				ctl.ObserveGood()
			}
			ctl.TickAt(time.Duration(step)*tick, qos.Signals{QueueFrac: float64(step%10) / 10, HeadroomC: 20})
		}
	})

	listMS, scrapeMS, err := probeHTTP(cfg, reps)
	if err != nil {
		return nil, err
	}
	out["http.models_rtt_ms"] = listMS
	out["http.metrics_scrape_ms"] = scrapeMS
	return out, nil
}

// probeAnatomy builds a fleet base anatomy the way the fleet runner does:
// steady frames of quantized MobileNet on NNAPI after two warm-up frames.
func probeAnatomy(platform *soc.SoC, seed uint64) (*fleet.Anatomy, error) {
	m, err := models.ByName("MobileNet 1.0 v1")
	if err != nil {
		return nil, err
	}
	rt := tflite.NewStack(platform, seed)
	a, err := app.New(rt, app.Config{Model: m, DType: tensor.UInt8, Delegate: tflite.DelegateNNAPI, Streaming: true})
	if err != nil {
		return nil, err
	}
	an := &fleet.Anatomy{Accel: true}
	a.Init(func() {
		a.Run(2+len(an.Frames), func(sts []app.FrameStats) {
			copy(an.Frames[:], sts[2:])
			a.StopStream()
		})
	})
	rt.Eng.Run()
	return an, nil
}

// probeHTTP times the frontend's two non-inference endpoints: the model
// listing (pure HTTP and JSON) and a metrics scrape.
func probeHTTP(cfg serve.Config, reps int) (modelsMS, scrapeMS float64, err error) {
	s, err := serve.NewServer(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	get := func(path string, n int) (float64, error) {
		var xs []float64
		for i := 0; i < n; i++ {
			t := time.Now()
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				return 0, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
			}
			xs = append(xs, msOf(time.Since(t)))
		}
		return medianOf(xs), nil
	}
	if modelsMS, err = get("/v1/models", 5*reps); err != nil {
		return 0, 0, err
	}
	if scrapeMS, err = get("/metrics", reps); err != nil {
		return 0, 0, err
	}
	return modelsMS, scrapeMS, nil
}
